"""The passes after the plan, against the dense definitions they replace: the
Lipschitz residual over one triangle of pairs or from suffix minima,
`MMSpace.nearest` and `coincident`, and the transport structure and ray
partition read from the bit rows of Gamma and R less the diagonal and the
coincident pairs."""

from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import rays as ry
from needlekit import w1solve as w1


def _euclidean(pts):
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return ms.build_space(list(range(len(pts))), {"type": "matrix", "data": D})


def _cloud(n, seed):
    return _euclidean(np.random.default_rng(seed).random((n, 2)))


def _two_rows(k, seed, duplicate):
    """Two rows of the same k random abscissae, one unit apart, and a copy of
    point `duplicate`, with unit masses moved from the left to the right
    half of each row (the copy carries none)."""
    x = np.sort(np.random.default_rng(seed).random(k))
    pts = np.concatenate([np.stack([x, np.zeros(k)], axis=1), np.stack([x, np.ones(k)], axis=1)])
    space = _euclidean(np.concatenate([pts, pts[[duplicate]]]))
    left = np.r_[np.tile(np.arange(k) < k // 2, 2), False]
    right = np.r_[np.tile(np.arange(k) >= k // 2, 2), False]
    return space, (left / left.sum(), right / right.sum())


def _grid_graph(k, seed):
    rng = np.random.default_rng(seed)
    edges = [[v, v + 1, rng.uniform(0.5, 1.5)] for v in range(k * k) if (v + 1) % k]
    edges += [[v, v + k, rng.uniform(0.5, 1.5)] for v in range(k * k - k)]
    return ms.build_space(list(range(k * k)), {"type": "graph", "edges": edges})


def _path_graph(k, seed, zero_edge):
    """A path of k nodes, its edge (zero_edge, zero_edge + 1) of weight 0."""
    rng = np.random.default_rng(seed)
    edges = [[v, v + 1, 0.0 if v == zero_edge else rng.uniform(0.5, 1.5)] for v in range(k - 1)]
    return ms.build_space(list(range(k)), {"type": "graph", "edges": edges})


def _interval(n, duplicates=()):
    t = ms.generate_interval_model(1.0, 2.0, np.pi, n)[0].line_coord.copy()
    for k in duplicates:
        t[k + 1] = t[k]
    return ms.MMSpace(list(range(n)), None, np.full(n, 1.0 / n), kind="interval", line_coord=t)


def _closest_pair_last(space):
    """The same metric with its points reordered so that a closest pair is (n - 2, n - 1)."""
    D = space.rows(slice(None))
    off = D + np.diag(np.full(space.n, np.inf))
    a, b = np.unravel_index(np.argmin(off), off.shape)
    perm = np.r_[np.setdiff1d(np.arange(space.n), [a, b]), a, b]
    return ms.MMSpace(list(range(space.n)), D[np.ix_(perm, perm)], space.weights[perm],
                      kind=space.kind)


SPACES = {
    "matrix": lambda: _cloud(230, 1),
    "graph": lambda: _grid_graph(15, 2),
    "interval": lambda: _interval(260),
    "sphere": lambda: ms.generate_sphere_sample(2, 240, 3),
}


def _dense_lipschitz(phi, D):
    return max(0.0, float((np.abs(phi[:, None] - phi[None, :]) - D).max()))


def _assert_residual(lip, phi, space, D):
    """The Lipschitz residual is the dense one on matrix spaces; on spaces with
    coordinates (`MMSpace.lipschitz_bound`) it lies in [dense, dense + 2 delta]."""
    dense = _dense_lipschitz(phi, D)
    if space._matrix is not None:
        assert lip == dense
    else:
        delta = 8 * np.finfo(float).eps * (np.abs(phi).max() + space.max_distance)
        assert dense <= lip <= dense + 2 * delta, (lip, dense, delta)


@pytest.mark.parametrize("block", [64, ms._ROW_BLOCK])
@pytest.mark.parametrize("case", sorted(SPACES))
def test_triangle_blocks_cover_each_pair_once(case, block):
    space = SPACES[case]()
    D, n = space.rows(slice(None)), space.n
    seen = np.zeros((n, n), dtype=int)
    with mock.patch.object(ms, "_ROW_BLOCK", block):
        for lo, hi, rows in space.triangle_blocks():
            assert np.array_equal(rows, D[lo:hi, lo:])
            assert rows.size <= max(block, n)
            if space.kind != "interval":    # slices of the matrix, not copies
                assert np.shares_memory(rows, space.D)
            seen[lo:hi, lo:] += 1
    assert (np.triu(seen) == np.triu(np.ones_like(seen))).all()


@pytest.mark.parametrize("block", [64, ms._ROW_BLOCK])
@pytest.mark.parametrize("case", sorted(SPACES))
def test_lipschitz_residual_matches_all_pairs(case, block):
    space = _closest_pair_last(SPACES[case]()) if case != "interval" else SPACES[case]()
    D, n = space.rows(slice(None)), space.n
    rng = np.random.default_rng(7)
    # random potentials, each far from 1-Lipschitz, and a 1-Lipschitz one
    anchors = rng.choice(n, size=5, replace=False)
    lipschitz = (rng.random(5)[:, None] + D[anchors]).min(axis=0)
    potentials = [rng.normal(size=n) * space.max_distance for _ in range(3)] + [lipschitz]
    # one violation, planted at the last pair of the triangle, (n - 2, n - 1)
    d = D[n - 2, n - 1]
    planted = np.zeros(n)
    planted[n - 1] = d + 1e-3 * d
    bad = np.argwhere(np.abs(planted[:, None] - planted[None, :]) - D > 0)
    assert bad.tolist() == [[n - 2, n - 1], [n - 1, n - 2]]
    with mock.patch.object(ms, "_ROW_BLOCK", block):
        for phi in potentials + [planted]:
            _assert_residual(w1._lipschitz_residual(phi, space), phi, space, D)
    assert w1._lipschitz_residual(lipschitz, space) <= 1e-12 * space.max_distance
    assert w1._lipschitz_residual(planted, space) > 1e-4 * d


@pytest.mark.parametrize("case", sorted(SPACES))
def test_lipschitz_residual_of_a_non_finite_potential_is_inf(case):
    # max(0.0, nan) is 0.0: a NaN potential read as 1-Lipschitz
    space = SPACES[case]()
    for bad in (np.nan, np.inf, -np.inf):
        phi = np.zeros(space.n)
        phi[space.n // 2] = bad
        assert w1._lipschitz_residual(phi, space) == np.inf, bad


def _random(space, seed):
    """The space, and random positive masses on every point."""
    a, b = np.random.default_rng(seed).random((2, space.n)) + 1e-3
    return space, (a / a.sum(), b / b.sum())


def _along(space, seed):
    """The space, and random masses moved from the half of its points nearer
    one end of a diameter to the other half."""
    D = space.rows(slice(None))
    order = np.argsort(D[np.argmax(D[0])], kind="stable")
    a, b = np.random.default_rng(seed).random((2, space.n)) + 1e-3
    a[order[space.n // 2:]] = b[order[:space.n // 2]] = 0.0
    return space, (a / a.sum(), b / b.sum())


# (space, marginals) with distinct points at distance 0, the pairs the
# structure counts as diagonal
COINCIDENT = {
    "interval-duplicate": lambda: _random(_interval(160, duplicates=(40, 41, 90)), 3),
    # the first point of the ray, a head by popcount ties, has a copy: it
    # must not cover it
    "interval-duplicate-start": lambda: _along(_interval(100, duplicates=(0,)), 3),
    "line-matrix-duplicate": lambda: _random(ms.build_space(
        list(range(160)),
        {"type": "matrix", "data": _interval(160, (40, 90)).rows(slice(None))}), 3),
    "matrix-zero-pair": lambda: _two_rows(60, 4, duplicate=17),
    "graph-zero-edge": lambda: _along(_path_graph(120, 5, zero_edge=50), 3),
    # legs p, q and x of a star send their mass to its centre, x with a copy
    # x' (a zero edge); x and x' are joined only at distance 0
    "graph-star-zero-leaf": lambda: (
        ms.build_space(range(5), {"type": "graph", "edges": [[0, 1, 1.0], [0, 2, 1.0], [0, 3, 1.0],
                                                             [3, 4, 0.0]]}),
        (np.r_[0.0, 0.25, 0.25, 0.25, 0.25], np.r_[1.0, 0.0, 0.0, 0.0, 0.0])),
}


@pytest.mark.parametrize("case", sorted(COINCIDENT) + sorted(SPACES))
def test_nearest_and_coincident_match_the_dense_matrix(case):
    space = COINCIDENT[case]()[0] if case in COINCIDENT else SPACES[case]()
    D, n = space.rows(slice(None)), space.n
    off = D + np.diag(np.full(n, np.inf))
    assert np.array_equal(space.nearest, off.min(axis=1))
    assert space.mesh == float(off.min(axis=1).max())
    zero = np.argwhere(off <= 0)
    assert np.array_equal(np.stack(space.coincident, axis=1).reshape(-1, 2), zero)
    assert (len(zero) > 0) == (case in COINCIDENT)


def _oracle_structure(space, gamma):
    """Strict successors and predecessors from `d > 0`, and A+ and A- by
    their definition over dense rows."""
    G, D = gamma.mask, space.rows(slice(None))
    R = G | G.T
    nontrivial = G & (D > 0)
    has_succ, has_pred = nontrivial.any(axis=1), nontrivial.any(axis=0)
    te = np.flatnonzero(has_succ | has_pred)

    def branching(M):
        return [x for x in te if any((M[x] & ~R[z]).any() for z in np.flatnonzero(M[x]))]

    return has_succ, has_pred, te, branching(G), branching(G.T)


def _oracle_rays(space, structure, solution):
    """Rays, orphans and diagnostics from the chain components of R & (d > 0)
    on T, on the dense matrix."""
    T, phi, D = structure.transport_set, solution.potential, space.rows(slice(None))
    G = structure.gamma.mask
    graph = sparse.csr_matrix((structure.R & (D > 0))[np.ix_(T, T)])
    ncomp, labels = connected_components(graph, directed=False)
    order = np.lexsort((T, -phi[T], labels))
    rays, orphans, diagnostics = [], [], []
    for k in range(ncomp):
        chain = T[order][labels[order] == k]
        a, b = chain[:-1], chain[1:]
        if len(chain) < 2:
            diagnostics.append(f"singleton component at point {chain[0]}")
        elif not (G[a, b] & (D[a, b] > 0)).all():
            diagnostics.append(f"NonChainComponent: component of size {len(chain)} not totally "
                               f"ordered by phi within tol={structure.gamma.tol:g}; orphaned")
        else:
            rays.append((chain, np.concatenate([[0.0], np.cumsum(D[a, b])])))
            continue
        orphans += chain.tolist()
    return rays, sorted(orphans), diagnostics


@pytest.mark.parametrize("case", sorted(COINCIDENT))
def test_structure_and_rays_on_coincident_points_match_the_distance_oracle(case):
    space, marginals = COINCIDENT[case]()
    sol = w1.solve_w1(space, *marginals)
    gamma = w1.gamma_set(space, sol)
    st = ry.build_transport_structure(space, gamma)
    has_succ, has_pred, te, a_plus, a_minus = _oracle_structure(space, gamma)
    assert np.array_equal(st.initial_points, np.flatnonzero(~has_pred))
    assert np.array_equal(st.final_points, np.flatnonzero(~has_succ))
    assert np.array_equal(st.transport_set_e, te)
    assert st.branching_fwd.tolist() == a_plus and st.branching_bwd.tolist() == a_minus
    # not vacuous: a coincident pair lies in R, both of its points in T
    i, j = space.coincident
    in_t = np.isin(i, st.transport_set) & np.isin(j, st.transport_set)
    assert (st.R[i, j] & in_t).any()
    dec = ry.partition_rays(space, st, sol)
    rays, orphans, diagnostics = _oracle_rays(space, st, sol)
    assert dec.orphan_points.tolist() == orphans and dec.diagnostics == diagnostics
    assert [ray.points.tolist() for ray in dec.rays] == [chain.tolist() for chain, _ in rays]
    for ray, (chain, s) in zip(dec.rays, rays):
        assert np.allclose(ray.params - ray.params[0], s, rtol=0, atol=1e-12 * space.max_distance)


def _interval_record(space, marginals):
    sol = w1.solve_w1(space, *marginals)
    needles = mg.decompose(space, sol)
    g, st, dec = needles.gamma, needles.structure, needles.rays
    return (sol.pairs.tobytes(), sol.masses.tobytes(), sol.potential.tobytes(),
            sol.lipschitz_residual, sol.duality_gap, space.mesh, space.nearest.tobytes(),
            [None if a is None else a.tobytes() for a in (g.fwd, g.bwd, g.runs)], st.R.tobytes(),
            st.initial_points.tobytes(), st.final_points.tobytes(),
            st.transport_set_e.tobytes(), st.branching_fwd.tobytes(),
            st.branching_bwd.tobytes(), st.transport_set.tobytes(),
            dec.ray_of.tobytes(), dec.param.tobytes(), dec.orphan_points.tobytes(),
            dec.diagnostics, needles.coupling.pairs.tobytes(), needles.coupling.masses.tobytes())


def test_row_block_size_changes_no_interval_result():
    # the triangle walk, the nearest-neighbour gaps and the coincident pairs
    # read distances in blocks; their size changes no result (fresh spaces,
    # so nothing cached carries over)
    expected = _interval_record(*COINCIDENT["interval-duplicate"]())
    for size in (64, 1 << 20):
        with mock.patch.object(ms, "_ROW_BLOCK", size):
            assert _interval_record(*COINCIDENT["interval-duplicate"]()) == expected
