import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import rays as ry
from needlekit import w1solve as w1
from needlekit.selftest import _grid_construction


def _interval_pipeline(n=300):
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, n)
    t = space.line_coord
    mu0 = np.where(t < np.pi / 2, space.weights, 0.0)
    mu0 /= mu0.sum()
    mu1 = np.where(t >= np.pi / 2, space.weights, 0.0)
    mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol)
    st = ry.build_transport_structure(space, g)
    return space, sol, g, st


def test_interval_structure():
    space, sol, g, st = _interval_pipeline()
    assert list(st.initial_points) == [0]
    assert list(st.final_points) == [space.n - 1]
    assert len(st.branching_fwd) == 0 and len(st.branching_bwd) == 0
    assert len(st.transport_set_e) == space.n
    assert len(st.transport_set) == space.n


def test_interval_single_ray_param():
    space, sol, g, st = _interval_pipeline()
    dec = ry.partition_rays(space, st, sol)
    assert len(dec.rays) == 1 and len(dec.orphan_points) == 0
    ray = dec.rays[0]
    assert len(ray.points) == space.n
    # ray-map isometry within 10 * tol
    P = space.D[np.ix_(ray.points, ray.points)]
    err = np.abs(np.abs(ray.params[:, None] - ray.params[None, :]) - P).max()
    assert err <= 10 * g.tol
    assert ray.params[np.where(ray.points == ray.representative)[0][0]] == 0.0
    # param increases as phi decreases
    phis = sol.potential[ray.points]
    assert np.all(np.diff(phis) < 0) and np.all(np.diff(ray.params) > 0)


def _branching_oracle(space, gamma):
    """Exhaustive check of the A+ definition over all triples."""
    n = space.n
    mask = gamma.mask
    R = mask | mask.T
    nontrivial = mask & (space.D > 0)
    te = np.where(nontrivial.any(axis=1) | nontrivial.any(axis=0))[0]
    a_plus = []
    for x in te:
        succ = np.where(mask[x])[0]
        found = False
        for z in succ:
            for w in succ:
                if not R[z, w]:
                    found = True
        if found:
            a_plus.append(x)
    return sorted(a_plus)


def test_tripod_hub_branches():
    tp = ms.build_space([0, 1, 2, 3],
                        {"type": "graph", "edges": [[0, 3, 1.0], [1, 3, 1.0], [2, 3, 1.0]]})
    mu0 = np.array([1.0, 0.0, 0.0, 0.0])
    mu1 = np.array([0.0, 0.5, 0.5, 0.0])
    sol = w1.solve_w1(tp, mu0, mu1)
    g = w1.gamma_set(tp, sol, tol=1e-10)
    st = ry.build_transport_structure(tp, g)
    assert 3 in st.branching_fwd
    assert list(st.branching_fwd) == _branching_oracle(tp, g)


def test_empty_gamma_all_empty():
    sp, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 32)
    mu = sp.weights.copy()
    sol = w1.solve_w1(sp, mu, mu)
    g = w1.gamma_set(sp, sol, tol=1e-13)
    st = ry.build_transport_structure(sp, g)
    assert len(st.transport_set_e) == 0
    assert len(st.branching_fwd) == 0 and len(st.transport_set) == 0


def test_two_disjoint_segments_two_rays():
    # two transport blocks separated by untouched mass in the middle
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 200)
    t = space.line_coord
    w = space.weights
    mu0 = np.where(t < 0.2, w, 0.0) + np.where((t > 0.5) & (t < 0.7), w, 0.0)
    mu1 = np.where((t > 0.3) & (t < 0.5), w, 0.0) + np.where(t > 0.8, w, 0.0)
    mu0 /= mu0.sum()
    mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol, tol=1e-10)
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    assert len(dec.rays) == 2


def test_grid_one_ray_per_row():
    sp, sol, f, st, dec = _grid_construction()
    assert len(dec.rays) == 20           # oracle: direct component count
    assert len(dec.orphan_points) == 0
    # per-row medians share one phi level when phi is linear in x
    rep_phi = sol.potential[[r.representative for r in dec.rays]]
    assert np.ptp(rep_phi) <= 1e-12


def test_select_quotient_median():
    # symmetric 3-point chain: middle point selected
    sp, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 16)
    n = sp.n
    mu0 = np.zeros(n); mu0[0] = 1.0
    mu1 = np.zeros(n); mu1[-1] = 1.0
    sol = w1.solve_w1(sp, mu0, mu1)
    g = w1.gamma_set(sp, sol)
    st = ry.build_transport_structure(sp, g)
    dec = ry.partition_rays(sp, st, sol)
    assert len(dec.rays) == 1
    rep, mass = dec.rays[0].representative, dec.rays[0].mass
    # median of a full chain of 16 equals one of the middle points
    assert rep in (7, 8)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_rays_have_at_least_two_points():
    for builder in (_interval_pipeline,):
        space, sol, g, st = builder()
        dec = ry.partition_rays(space, st, sol)
        assert all(len(r.points) >= 2 for r in dec.rays)


def test_mass_conservation():
    sp, sol, f, st, dec = _grid_construction()
    m_te = sp.weights[st.transport_set_e].sum()
    m_rays = sum(r.mass for r in dec.rays)
    m_orph = sp.weights[dec.orphan_points].sum() if len(dec.orphan_points) else 0.0
    m_branch = sp.weights[np.union1d(st.branching_fwd, st.branching_bwd)].sum()
    assert m_rays + m_orph + m_branch == pytest.approx(m_te, abs=1e-12)


def test_common_ray_pairs_in_R():
    space, sol, g, st = _interval_pipeline(200)
    dec = ry.partition_rays(space, st, sol)
    R = g.mask | g.mask.T
    rng = np.random.default_rng(0)
    fails = 0
    for ray in dec.rays:
        k = len(ray.points)
        ii = rng.integers(0, k, 200)
        jj = rng.integers(0, k, 200)
        fails += int((~R[ray.points[ii], ray.points[jj]]).sum())
    assert fails == 0


def test_non_chain_component_orphaned():
    # white-box: a fabricated Gamma whose R-component is not a phi-chain
    D = np.array([[0.0, 1.0, 1.05],
                  [1.0, 0.0, 0.05],
                  [1.05, 0.05, 0.0]])
    sp = ms.build_space([0, 1, 2], {"type": "matrix", "data": D})
    mask = np.eye(3, dtype=bool)
    mask[0, 1] = mask[2, 1] = True         # R joins 0-1 and 1-2, and 2 -> 1 runs against phi
    g = w1.GammaSet(ry._packed(mask), 1e-6, ry._packed(mask.T))
    st = ry.TransportStructure(
        gamma=g,
        initial_points=np.array([0]), final_points=np.array([2]),
        transport_set_e=np.array([0, 1, 2]),
        branching_fwd=np.array([], dtype=int), branching_bwd=np.array([], dtype=int),
        transport_set=np.array([0, 1, 2]))

    class _Sol:
        potential = np.array([1.0, 0.0, -0.05])

    dec = ry.partition_rays(sp, st, _Sol())
    assert len(dec.rays) == 0
    assert sorted(dec.orphan_points) == [0, 1, 2]
    assert any("NonChainComponent" in d for d in dec.diagnostics)


def test_consistency_explicit_sets():
    from needlekit import disint as di
    sp, sol, f, st, dec = _grid_construction()
    d = di.disintegrate(sp, dec, sp.weights)
    B = np.zeros(sp.n, dtype=bool)
    B[: sp.n // 3] = True
    rep = di.check_consistency(d, test_sets=[B], ray_subsets=[np.arange(5)])
    assert rep["pairs_tested"] == 1
    assert rep["consistency_max_err"] <= 1e-12


def _branch_counts(G, R):
    """Oracle: for each x, the number of (z, w) in Gamma(x)^2 with (z, w) not in R."""
    B = (~R).astype(np.float32)
    Gf = G.astype(np.float32)
    return np.einsum("ij,ij->i", Gf @ B, Gf)


@settings(max_examples=200, deadline=None)
@given(hs.integers(1, 70).filter(lambda n: n % 8), hs.floats(0.0, 1.0),
       hs.integers(0, 2**32 - 1), hs.booleans(), hs.booleans())
def test_packed_branching_matches_matmul(n, fill, seed, diagonal, upper):
    # n % 8 != 0, so ~R has set padding bits in its last byte
    mask = np.random.default_rng(seed).random((n, n)) < fill
    if upper:
        mask = np.triu(mask)           # one-way Gamma, as on a ray
    if diagonal:
        np.fill_diagonal(mask, True)
    R = mask | mask.T
    fwd, bwd = ry._packed(mask), ry._packed(mask.T)
    r = fwd | bwd
    assert np.array_equal(np.unpackbits(r.view(np.uint8), axis=1, count=n).view(bool), R)
    for G, M in ((fwd, mask), (bwd, mask.T)):
        assert ([ry._branching(G, r, x, np.flatnonzero(M[x]), slice(None)) for x in range(n)]
                == list(_branch_counts(M, R) > 0.5))


@settings(max_examples=200, deadline=None)
@given(hs.integers(2, 90), hs.integers(0, 2**32 - 1), hs.booleans(), hs.floats(0.0, 0.05),
       hs.floats(0.0, 0.05))
def test_clique_cover_matches_matmul(n, seed, diagonal, deleted, added):
    # needle-shaped Gamma: chains (upper-triangular blocks) with random chords
    # deleted, so that a covered candidate can fail the subset test, or added
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=rng.integers(0, min(n - 1, 6) + 1),
                              replace=False))
    block = np.searchsorted(cuts, np.arange(n), side="right")
    mask = np.triu(block[:, None] == block[None, :], 1)
    mask &= rng.random((n, n)) >= deleted
    mask |= rng.random((n, n)) < added
    np.fill_diagonal(mask, diagonal)
    R = mask | mask.T
    fwd, bwd = ry._packed(mask), ry._packed(mask.T)
    r = fwd | bwd
    rows = np.arange(n)
    for G, M in ((fwd, mask), (bwd, mask.T)):
        cover = ry._clique_cover(G, rows, lambda c, y, words: not ry._branching(G, r, c, y, words))
        assert np.array_equal(cover < 0, _branch_counts(M, R) > 0.5)
        covered = np.flatnonzero((cover >= 0) & (cover != rows))
        heads = cover[covered]
        assert (cover[heads] == heads).all()
        assert not (M[covered] & ~M[heads]).any() and M[heads, covered].all()

    # points on a line, a few of them repeated: distinct points at distance 0
    t = np.cumsum(rng.random(n) + 0.1)
    dup = rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False)
    t[dup] = t[dup - 1]
    space = ms.build_space(list(range(n)), {"type": "matrix", "data": np.abs(t[:, None] - t)})
    st = ry.build_transport_structure(
        space, w1.GammaSet(ry._packed(mask), 1e-9, ry._packed(mask.T)))

    class _Sol:
        potential = -t

    with mock.patch.object(ry, "connected_components", wraps=connected_components) as spy:
        ry.partition_rays(space, st, _Sol())
    T = st.transport_set
    if len(T):
        D = space.D[np.ix_(T, T)]
        _, dense = connected_components(sparse.csr_matrix(st.R[np.ix_(T, T)] & (D > 0)),
                                        directed=False)
        _, pruned = connected_components(spy.call_args.args[0], directed=False)
        assert np.array_equal(pruned, dense)


def _positive_gamma(space, seed=0):
    """Solution and Gamma for random positive marginals on `space`."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(space.n) + 1e-3, rng.random(space.n) + 1e-3
    sol = w1.solve_w1(space, a / a.sum(), b / b.sum())
    return sol, w1.gamma_set(space, sol)


def _cloud(n=150, seed=0):
    pts = np.random.default_rng(seed).random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return ms.build_space(list(range(n)), {"type": "matrix", "data": D})


def _interval_with_duplicates(n=600):
    """Matrix space of an interval model with a few points repeated: distinct
    points at distance 0."""
    D = ms.generate_interval_model(1.0, 2.0, np.pi, n)[0].D
    idx = np.sort(np.concatenate([np.arange(n), [0, 150, 151, 300, n - 1]]))
    return ms.build_space(list(range(len(idx))), {"type": "matrix", "data": D[np.ix_(idx, idx)]})


@pytest.mark.parametrize("case", ["interval-600", "grid", "cloud", "interval-600-duplicates"])
def test_structure_and_rays_match_dense_oracle(case):
    if case == "grid":
        space, sol, _, st, dec = _grid_construction()
    else:
        space = {"interval-600": lambda: ms.generate_interval_model(1.0, 2.0, np.pi, 600)[0],
                 "cloud": _cloud, "interval-600-duplicates": _interval_with_duplicates}[case]()
        sol, g = _positive_gamma(space)
        st = ry.build_transport_structure(space, g)
        dec = ry.partition_rays(space, st, sol)
    mask, D = st.gamma.mask, space.D
    nontrivial = mask & (D > 0)
    te = nontrivial.any(axis=1) | nontrivial.any(axis=0)
    R = mask | mask.T
    a_plus = np.where(te & (_branch_counts(mask, R) > 0.5))[0]
    a_minus = np.where(te & (_branch_counts(mask.T, R) > 0.5))[0]
    t_mask = te.copy()
    t_mask[a_plus] = t_mask[a_minus] = False
    T = np.where(t_mask)[0]
    assert np.array_equal(st.R, R)
    assert np.array_equal(st.initial_points, np.where(~nontrivial.any(axis=0))[0])
    assert np.array_equal(st.final_points, np.where(~nontrivial.any(axis=1))[0])
    assert np.array_equal(st.transport_set_e, np.where(te)[0])
    assert np.array_equal(st.branching_fwd, a_plus)
    assert np.array_equal(st.branching_bwd, a_minus)
    assert np.array_equal(st.transport_set, T)
    # rays and orphans are the dense components of R & (D > 0) on T, in label order
    _, labels = connected_components(
        sparse.csr_matrix(R[np.ix_(T, T)] & (D[np.ix_(T, T)] > 0)), directed=False)
    comps = [T[labels == k] for k in range(labels.max() + 1)]
    orphans = set(dec.orphan_points.tolist())
    kept = [c for c in comps if not set(c.tolist()) <= orphans]
    assert [sorted(r.points.tolist()) for r in dec.rays] == [c.tolist() for c in kept]
    assert sum(len(c) for c in comps) == len(orphans) + sum(len(c) for c in kept)


def test_structure_memory_below_4n2_bytes():
    # the dense construction peaked at 14 n^2 bytes: three n x n float32
    # arrays for the branching matmuls plus the bool masks
    space = ms.generate_interval_model(1.0, 2.0, np.pi, 2000)[0]
    _, g = _positive_gamma(space)
    tracemalloc.start()
    try:
        ry.build_transport_structure(space, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * space.n ** 2


def _interval_2000():
    space = ms.generate_interval_model(1.0, 2.0, np.pi, 2000)[0]
    sol, g = _positive_gamma(space)
    return space, sol, g


def _matrix_interval_2000():
    """`_interval_2000` on a matrix copy of its coordinates: the same Gamma, as bit rows."""
    space, sol, _ = _interval_2000()
    copy = ms.build_space(list(range(space.n)), {"type": "matrix", "data": space.D})
    g = w1.gamma_set(copy, sol)
    assert g.runs is None
    return copy, sol, g


def test_cover_tests_few_rows_and_prunes_the_graph(monkeypatch):
    # the full test ran on every row of T_e, and the graph held every edge of
    # R & (D > 0) on T: 4,000 tested rows and 1.9M stored entries here
    space, sol, g = _matrix_interval_2000()
    tested, graphs = {}, []
    branching, components = ry._branching, ry.connected_components

    def branching_spy(G, r, x, y, words):
        tested[id(G)] = tested.get(id(G), 0) + 1
        return branching(G, r, x, y, words)

    def components_spy(graph, **kw):
        graphs.append(graph.nnz)
        return components(graph, **kw)

    monkeypatch.setattr(ry, "_branching", branching_spy)
    monkeypatch.setattr(ry, "connected_components", components_spy)
    st = ry.build_transport_structure(space, g)
    ry.partition_rays(space, st, sol)
    assert len(tested) == 2
    assert all(k <= 0.05 * len(st.transport_set_e) for k in tested.values())
    assert len(graphs) == 1 and graphs[0] <= 2 * space.n


def test_bit_route_memory_on_the_matrix_copy():
    # the bounds of the two memory tests below, on the route that reads bit rows
    space, sol, g = _matrix_interval_2000()
    tracemalloc.start()
    try:
        st = ry.build_transport_structure(space, g)
        structure = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ry.partition_rays(space, st, sol)
        partition = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert structure <= 4 * space.n ** 2 and partition <= 2 * space.n ** 2


def test_decompose_on_an_interval_model_builds_no_bit_rows(monkeypatch):
    # Gamma is kept as runs from gamma_set to the coupling: no array of n bit
    # rows is packed, no dense view of n rows is built, and the clique cover
    # never runs
    space, sol, _ = _interval_2000()
    rows = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(M, *more):
            rows.append(len(M))
            return real(M, *more)
        monkeypatch.setattr(module, name, counted)

    for module in (w1, ry):
        spy(module, "_packed")
        spy(module, "_run_rows")
    monkeypatch.setattr(ry, "_clique_cover", mock.Mock(side_effect=AssertionError("cover")))
    needles = mg.decompose(space, sol)
    assert needles.gamma.runs is not None and len(needles.rays.rays) > 0
    assert needles.gamma.fwd is None and needles.gamma.bwd is None
    assert "r" not in {f.name for f in dataclasses.fields(needles.structure)}
    assert space.n not in rows
    assert len(needles.structure.R) == space.n and space.n in rows     # the spies see a build


def test_partition_memory_below_2n2_bytes():
    # the component graph of every edge of R & (D > 0) on T peaked at 13 n^2 bytes
    space, sol, g = _interval_2000()
    st = ry.build_transport_structure(space, g)
    tracemalloc.start()
    try:
        ry.partition_rays(space, st, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * space.n ** 2


def test_representative_ties_go_to_the_larger_phi():
    # |phi - median| ties between the two middle points of [0, 2, 1, 3]; the
    # one earlier on the ray (larger phi) is taken, not the lower index
    phi = np.array([3.0, 1.0, 2.0, 0.0])
    space = ms.build_space([0, 1, 2, 3], {"type": "matrix", "data": np.abs(phi[:, None] - phi)})
    rep, mass = ry._select_representative(space, np.array([0, 2, 1, 3]))
    assert rep == 2
    assert mass == pytest.approx(1.0)


def test_representative_exact_tie_is_taken_by_position():
    # the middle values 2.92 and 2.43 are equally far from their mean in
    # exact arithmetic, but in floats the later one rounds nearer; the
    # earlier middle point is taken all the same, and an odd ray's middle
    phi = np.array([3.5, 2.92, 2.43, 1.0, 0.0])
    space = ms.build_space(list(range(5)), {"type": "matrix", "data": np.abs(phi[:, None] - phi)})
    med = (phi[1] + phi[2]) / 2
    assert abs(phi[2] - med) < abs(phi[1] - med)
    assert ry._select_representative(space, np.arange(4))[0] == 1
    assert ry._select_representative(space, np.arange(5))[0] == 2
    assert ry._select_representative(space, np.array([3]))[0] == 3
