import re
import tracemalloc

import numpy as np
import pytest

from needlekit import mmspace as ms
from needlekit.errors import (
    BadDiameter,
    BadDimension,
    BadParameter,
    ConfigError,
    DisconnectedGraph,
    EmptySpace,
    InvalidWeights,
    MetricViolation,
)


def test_two_point_space():
    sp = ms.build_space([0, 1], {"type": "matrix", "data": [[0, 1], [1, 0]]}, [0.5, 0.5])
    assert sp.n == 2
    assert sp.D[0, 1] == 1.0
    assert sp.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_weights_normalized():
    sp = ms.build_space([0, 1], {"type": "matrix", "data": [[0, 2], [2, 0]]}, [3.0, 1.0])
    assert np.allclose(sp.weights, [0.75, 0.25])


def test_path_graph_shortest_path():
    sp = ms.build_space([0, 1, 2], {"type": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0]]})
    assert sp.D[0, 2] == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("edges, want", [
    ([[0, 1, 1.0], [1, 0, 1.0], [1, 2, 1.0]], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
    ([[0, 1, 1.0], [0, 1, 3.0], [1, 2, 1.0]], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
    ([[1, 0, 3.0], [0, 1, 1.0], [2, 1, 1.0], [1, 2, 0.5]], [[0, 1, 1.5], [1, 0, 0.5], [1.5, 0.5, 0]]),
    ([[0, 0, 5.0], [0, 1, 1.0], [2, 2, 0.0], [1, 2, 1.0]], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
])
def test_graph_edges_repeated_or_looped_keep_the_least_weight(edges, want):
    # a pair listed twice (either way round) is one edge of the least weight,
    # and a self-loop is no edge; summed weights would lengthen every path
    sp = ms.build_space([0, 1, 2], {"type": "graph", "edges": edges})
    np.testing.assert_array_equal(sp.D, want)


def test_graph_of_self_loops_alone_is_disconnected():
    with pytest.raises(DisconnectedGraph):
        ms.build_space([0, 1], {"type": "graph", "edges": [[0, 0, 1.0], [1, 1, 1.0]]})


@pytest.mark.parametrize("bad",[[[0, 1], [3, 0]], [[5, 1], [1, 0]]])
def test_raw_matrix_is_validated(bad):
    # asymmetry and a nonzero diagonal are caught before symmetrization hides them
    with pytest.raises(MetricViolation):
        ms.build_space([0, 1], {"type": "matrix", "data": bad})


def test_triangle_violation():
    bad = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    with pytest.raises(MetricViolation):
        ms.build_space([0, 1, 2], {"type": "matrix", "data": bad})


def test_disconnected_graph():
    with pytest.raises(DisconnectedGraph):
        ms.build_space([0, 1, 2], {"type": "graph", "edges": [[0, 1, 1.0]]})


def test_empty_space():
    with pytest.raises(EmptySpace):
        ms.build_space([], {"type": "matrix", "data": []})


def test_interval_model_constant_for_k0():
    space, dens = ms.generate_interval_model(0.0, 3.0, 1.0, 100)
    assert np.allclose(dens.values, dens.values[0])
    # uniform trapezoid weights: interior nodes equal, ends halved
    assert np.allclose(space.weights[1:-1], space.weights[1])
    assert space.weights[0] == pytest.approx(space.weights[1] / 2, rel=1e-12)


def test_interval_model_sin_mass_oracle():
    # oracle: antiderivative of sin is 1 - cos; compare partial trapezoid sums
    # at exact grid nodes (trapezoid error is O(h^2))
    space, dens = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)
    assert space.weights.sum() == pytest.approx(1.0, abs=1e-12)
    grid = dens.grid
    total = np.trapezoid(dens.values, grid)
    for k in (250, 400, 700):
        part = np.trapezoid(dens.values[: k + 1], grid[: k + 1])
        exact = (1 - np.cos(grid[k])) / (1 - np.cos(np.pi))
        assert part / total == pytest.approx(exact, abs=1e-5)


def test_interval_model_bonnet_myers():
    # D_max = pi * sqrt((N-1)/K) = pi/2 for K=8, N=3
    with pytest.raises(BadDiameter):
        ms.generate_interval_model(8.0, 3.0, np.pi, 100)
    with pytest.raises(BadDimension):
        ms.generate_interval_model(1.0, 0.5, 1.0, 100)


def test_sphere_antipodal_distance():
    pts = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    G = ms.great_circle_matrix(pts)
    assert G[0, 1] == pytest.approx(np.pi, abs=1e-12)


def test_sphere_uniform_weights():
    sp = ms.generate_sphere_sample(2, 1000, seed=0)
    assert np.allclose(sp.weights, 1e-3)
    assert sp.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_sphere_mean_pairwise_distance():
    # oracle: Monte Carlo of the great-circle distance under the uniform measure
    rng = np.random.default_rng(42)
    P = rng.normal(size=(4000, 3))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    mc = np.arccos(np.clip((P[:2000] * P[2000:]).sum(1), -1, 1)).mean()
    sp = ms.generate_sphere_sample(2, 2000, seed=0)
    iu = np.triu_indices(sp.n, k=1)
    sample_mean = sp.D[iu].mean()
    assert sample_mean == pytest.approx(np.pi / 2, abs=0.02)
    assert mc == pytest.approx(np.pi / 2, abs=0.05)


def test_triangle_inequality_invariant_sampled():
    sp = ms.generate_sphere_sample(2, 500, seed=1)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, sp.n, size=(20000, 3))
    viol = sp.D[idx[:, 0], idx[:, 2]] - sp.D[idx[:, 0], idx[:, 1]] - sp.D[idx[:, 1], idx[:, 2]]
    assert viol.max() <= 1e-12 * sp.max_distance


def test_sampled_triangle_check_matches_one_draw():
    # the blocked triple sample is the one a single draw of all
    # SAMPLED_TRIPLES rows from the same generator gives: a planted
    # violation through points 0 and 1 reports the same worst triple
    n = ms.EXHAUSTIVE_TRIPLE_LIMIT + 100
    pts = np.random.default_rng(3).random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    D[0, 1] = D[1, 0] = 10.0
    idx = np.random.default_rng(7).integers(0, n, size=(ms.SAMPLED_TRIPLES, 3))
    worst = (D[idx[:, 0], idx[:, 2]] - D[idx[:, 0], idx[:, 1]] - D[idx[:, 1], idx[:, 2]]).max()
    with pytest.raises(MetricViolation, match=re.escape(f"sampled triple by {worst:.3e}")):
        ms._validate_metric(D, rng=np.random.default_rng(7))


def test_sampled_triangle_check_memory():
    # the 10^6 sampled triples are drawn in blocks, not as one (10^6, 3)
    # int64 array (24 MB, a 40 MB peak with the gathered distances)
    D = ms.great_circle_matrix(ms.fibonacci_sphere(2000, seed=0))
    tracemalloc.start()
    try:
        ms._validate_metric(D, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def _graph_space():
    rng = np.random.default_rng(4)
    edges = [[i, i + 1, float(rng.random() + 0.1)] for i in range(39)]
    edges += [[i, i + 7, float(rng.random() + 0.5)] for i in range(0, 33, 3)]
    return ms.build_space(list(range(40)), {"type": "graph", "edges": edges})


@pytest.mark.parametrize("kind", ["interval", "sphere", "graph"])
def test_mesh_matches_dense_formula(kind):
    if kind == "interval":
        sp, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 700)
    elif kind == "sphere":
        sp = ms.generate_sphere_sample(2, 1200, seed=3)    # six row blocks
    else:
        sp = _graph_space()
    offdiag = sp.D + np.diag(np.full(sp.n, np.inf))
    assert sp.mesh == float(offdiag.min(axis=1).max())


def test_mesh_memory():
    # the off-diagonal row minimum is taken in row blocks, with no n x n
    # temporary (the dense formula peaks at 30.5 MB here)
    sp, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 2000)
    tracemalloc.start()
    try:
        sp.mesh
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_line_detection():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 50)
    rebuilt = ms.from_spec({"points": space.point_ids,
                            "metric": {"type": "matrix", "data": space.D.tolist()},
                            "weights": space.weights.tolist()})
    assert rebuilt.line_coord is not None


def test_from_spec_dispatch(tmp_path):
    import json
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"metric": {"type": "interval", "K": 0.0, "N": 2.0,
                                           "D": 1.0, "n": 32}}))
    sp = ms.load_spec(path)
    assert sp.kind == "interval" and sp.n == 32


def test_density1d_validation():
    with pytest.raises(ValueError):
        ms.Density1D([0.0, 1.0], [-1.0, 1.0])
    with pytest.raises(ValueError):
        ms.Density1D([0.0, 0.0], [1.0, 1.0])
    d = ms.Density1D([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
    assert d.integral() == pytest.approx(3.0)
    assert d(0.5) == pytest.approx(1.5)


_TWO = {"type": "matrix", "data": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("make, error", [
    (lambda: ms.Density1D([[0, 1]], [[1, 1]]), ValueError),               # 2D grid
    (lambda: ms.Density1D([0, 1], [0, 0]), ValueError),                   # zero integral
    (lambda: ms.build_space([0, 1], _TWO, [1.0]), InvalidWeights),        # weight count
    (lambda: ms.build_space([0, 1], _TWO, [1.0, -0.5]), InvalidWeights),
    (lambda: ms.build_space([0, 1], _TWO, [1.0, np.nan]), InvalidWeights),
    (lambda: ms.build_space([0, 1], _TWO, [0.0, 0.0]), InvalidWeights),   # no mass
    (lambda: ms.build_space([0, 1], {"type": "matrix", "data": [[0, np.inf], [np.inf, 0]]}),
     MetricViolation),
    (lambda: ms.build_space([0, 1], {"type": "matrix", "data": [[0, -1], [-1, 0]]}),
     MetricViolation),
    (lambda: ms.build_space([0, 1, 2], _TWO), MetricViolation),           # shape vs points
    (lambda: ms.build_space([0, 1], {"type": "graph", "edges": []}), DisconnectedGraph),
    (lambda: ms.build_space([0, 1], {"type": "graph", "edges": [[0, 1, -1.0]]}),
     MetricViolation),
    (lambda: ms.build_space([0, 1], {"type": "torus"}), ConfigError),
    (lambda: ms.generate_interval_model(0.0, 2.0, 0.0, 100), BadDiameter),
    (lambda: ms.generate_sphere_sample(3, 200), BadDimension),
    (lambda: ms.generate_sphere_sample(2, 50), BadParameter),
    (lambda: ms.from_spec({"points": [0, 1]}), ConfigError),
    (lambda: ms.from_spec({"metric": {"type": "torus"}}), ConfigError),
])
def test_typed_input_errors(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize("metric", [
    {"type": "matrix", "data": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    {"type": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
])
def test_spec_without_points_numbers_them(metric):
    # the points default to 0..n-1: the matrix size, or one past the largest node
    space = ms.from_spec({"metric": metric})
    assert space.point_ids == [0, 1, 2]
    assert space.dist(0, 2) == 2.0
