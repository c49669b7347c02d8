"""Gamma, Gamma^-1 and the Lipschitz residual on sorted coordinates, built from
`MMSpace.saturation_runs`, against their dense definitions, and the distance
entries they read there and on the spaces that keep the row passes; the
structure, rays and cyclic-monotonicity pairs read from Gamma's runs against
the bit route on a matrix copy of the same coordinates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_distance_passes import _assert_residual

from needlekit import mmspace as ms
from needlekit import rays as ry
from needlekit import w1solve as w1


def _line(t):
    n = len(t)
    return ms.MMSpace(list(range(n)), None, np.full(n, 1.0 / n), kind="interval", line_coord=t)


def _coordinates(n, offset, duplicates, seed):
    """n sorted random coordinates on [offset, offset + 3], some of them repeated."""
    rng = np.random.default_rng(seed)
    t = offset + 3 * np.sort(rng.random(n))
    if duplicates:
        k = rng.integers(0, n - 1, size=max(1, n // 5))
        t[k + 1] = t[k]
        t = np.sort(t)
    return t


def _potentials(t, rng):
    """1-Lipschitz potentials with long saturated stretches, and two that are
    not 1-Lipschitz: one by a hair, one far from it."""
    u, w = t - t[0], (t[-1] - t[0]) / 7
    q, r = np.divmod(u, 2 * w)
    cones = np.min([np.abs(t - t[a]) + rng.random() for a in rng.integers(0, len(t), 4)], axis=0)
    return {
        "slope": u,                                  # every pair saturated one way
        "staircase": q * w + np.minimum(r, w),       # rising pieces between flat ones
        "zigzag": np.abs(np.mod(u, 2 * w) - w),
        "cones": cones,
        "jittered": cones + 1e-9 * w * rng.normal(size=len(t)),
        "rough": rng.normal(size=len(t)) * (t[-1] - t[0]),
    }


def _solution(phi):
    n = len(phi)
    return w1.W1Solution(np.zeros((0, 2), int), np.zeros(0), 0.0, phi, 0.0, 0.0,
                         np.full(n, 1.0 / n), np.full(n, 1.0 / n))


GRID = ([(n, 0.0, False) for n in (16, 17, 63, 64, 65, 300, 500, 1000, 2001)]
        + [(n, offset, dup) for n in (17, 65, 300) for offset in (0.0, 1e6, -3e8)
           for dup in (False, True)])


@pytest.mark.parametrize("n, offset, duplicates", GRID)
def test_runs_match_the_dense_gamma_and_residual(n, offset, duplicates):
    t = _coordinates(n, offset, duplicates, seed=n)
    space = _line(t)
    D = np.abs(t[:, None] - t[None, :])
    step = float(np.median(np.diff(t))) or 1e-3
    for name, phi in _potentials(t, np.random.default_rng(n)).items():
        gap = phi[:, None] - phi[None, :]
        for tol in (0.0, 1e-12, 1e-6, step, np.inf):
            gamma = w1.gamma_set(space, _solution(phi), tol)
            assert np.array_equal(gamma.fwd, w1._packed(gap >= D - tol)), (name, tol)
            assert np.array_equal(gamma.bwd, w1._packed(-gap >= D - tol)), (name, tol)
        _assert_residual(w1._lipschitz_residual(phi, space), phi, space, D)


@pytest.mark.parametrize("offset", [0.0, 1e6, -3e8])
def test_runs_match_the_dense_gamma_on_ties_at_the_tolerance(offset):
    # on a uniform grid, whole diagonals of pairs have d - tol = phi(x) - phi(y)
    # up to rounding, so the margin decides which runs are certain
    t = offset + 0.1 * np.arange(300)
    D = np.abs(t[:, None] - t[None, :])
    for phi in (np.zeros_like(t), t - t[0], 0.5 * (t - t[0])):
        gap = phi[:, None] - phi[None, :]
        for tol in (0.1, 0.2, 0.3, 1.7):
            gamma = w1.gamma_set(_line(t), _solution(phi), tol)
            assert np.array_equal(gamma.fwd, w1._packed(gap >= D - tol)), tol
            assert np.array_equal(gamma.bwd, w1._packed(-gap >= D - tol)), tol


def test_runs_bound_the_pairs_of_every_row():
    # every pair in a certain run is in Gamma, every pair outside the possible run is out
    t = _coordinates(300, 1e6, True, seed=5)
    D = np.abs(t[:, None] - t[None, :])
    for name, phi in _potentials(t, np.random.default_rng(5)).items():
        for tol in (0.0, 1e-6, 0.05):
            lo_in, hi_in, lo_out, hi_out = _line(t).saturation_runs(phi, tol)
            inside = phi[:, None] - phi[None, :] >= D - tol
            cols = np.arange(len(t))
            certain = (cols >= lo_in[:, None]) & (cols < hi_in[:, None])
            possible = (cols >= lo_out[:, None]) & (cols < hi_out[:, None])
            assert not (certain & ~inside).any() and not (inside & ~possible).any(), (name, tol)
    # phi = t - t[0] saturates every pair y <= x: the certain runs reach column 0
    lo_in, hi_in, _, _ = _line(t).saturation_runs(t - t[0], 1e-6)
    assert (lo_in == 0).mean() > 0.9


def test_spaces_without_sorted_coordinates_have_no_runs():
    t = _coordinates(200, 0.0, False, seed=2)
    phi = t - t[0]
    shuffled = _line(t[np.random.default_rng(2).permutation(len(t))])
    matrix = ms.build_space(list(range(len(t))), {"type": "matrix",
                                                  "data": np.abs(t[:, None] - t[None, :])})
    assert matrix.line_coord is not None
    assert shuffled.saturation_runs(phi, 1e-6) is None and matrix.saturation_runs(phi, 1e-6) is None
    assert _line(t).saturation_runs(phi, -1e-6) is None
    assert _line(t).saturation_runs(np.r_[phi[:-1], np.nan], 1e-6) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 300), st.sampled_from([0.0, 1e8, -1e8]), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_lipschitz_bound_brackets_the_dense_residual(n, offset, duplicates, shuffled, seed):
    # 1-Lipschitz potentials read [0, 2 delta]; rough ones, and those off by
    # a hair, the dense value up to 2 delta; shuffled coordinates are sorted first
    t = _coordinates(n, offset, duplicates, seed)
    rng = np.random.default_rng(seed)
    p = rng.permutation(n) if shuffled else np.arange(n)
    space, D = _line(t[p]), np.abs(t[p][:, None] - t[p][None, :])
    for name, phi in _potentials(t, rng).items():
        lip = w1._lipschitz_residual(phi[p], space)
        _assert_residual(lip, phi[p], space, D)
        if name in LIPSCHITZ:
            assert lip <= 1e-13 * max(1.0, space.max_distance), name


def _reads(space, sol, tol):
    """(distance entries read by gamma_set, those read by _lipschitz_residual,
    Gamma, Lipschitz residual)."""
    read = []
    rows, dist = ms.MMSpace.rows, ms.MMSpace.dist

    def counted_rows(self, idx, cols=None, out=None):
        block = rows(self, idx, cols, out)
        read.append(block.size)
        return block

    def counted_dist(self, i, j):
        d = dist(self, i, j)
        read.append(np.size(d))
        return d

    with mock.patch.object(ms.MMSpace, "rows", counted_rows), \
            mock.patch.object(ms.MMSpace, "dist", counted_dist):
        gamma = w1.gamma_set(space, sol, tol)
        gamma_read = sum(read)
        lip = w1._lipschitz_residual(sol.potential, space)
    return gamma_read, sum(read) - gamma_read, gamma, lip


def _solved(space, seed):
    a, b = np.random.default_rng(seed).random((2, space.n)) + 1e-3
    sol = w1.solve_w1(space, a / a.sum(), b / b.sum())
    return sol, w1.gamma_tol(space, sol)


def test_sorted_interval_model_reads_a_third_of_the_distances():
    space = ms.generate_interval_model(0.0, 2.0, 1.0, 4000)[0]
    sol, tol = _solved(space, 0)
    read, lip_read, gamma, lip = _reads(space, sol, tol)
    assert read <= space.n ** 2 / 3 and lip_read == 0
    assert gamma.count > 10 * space.n and lip == sol.lipschitz_residual


def test_unsorted_and_matrix_spaces_take_full_passes_with_equal_bits():
    # the same metric on shuffled coordinates and as a line-detected matrix;
    # only the matrix space walks the pairs for the Lipschitz residual
    space = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)[0]
    n, t = space.n, space.line_coord
    sol, tol = _solved(space, 1)
    read, lip_read, gamma, lip = _reads(space, sol, tol)
    assert read <= n ** 2 / 3 and lip_read == 0
    _assert_residual(lip, sol.potential, space, space.D)
    p = np.random.default_rng(1).permutation(n)      # point k of the copy is point p[k]
    inv = np.argsort(p)
    for copy in (_line(t[p]), ms.build_space(list(range(n)), {"type": "matrix",
                                                             "data": space.rows(p, p)})):
        moved = w1.W1Solution(inv[sol.pairs], sol.masses, sol.primal_value, sol.potential[p],
                              sol.lipschitz_residual, sol.duality_gap, sol.mu0[p], sol.mu1[p])
        read, lip_read, other, other_lip = _reads(copy, moved, tol)
        assert read >= n ** 2
        assert lip_read == 0 if copy._matrix is None else lip_read >= n * (n + 1) // 2
        assert np.array_equal(other.mask, gamma.mask[np.ix_(p, p)])
        assert np.array_equal(other.bwd, w1._packed(gamma.mask.T[np.ix_(p, p)]))
        _assert_residual(other_lip, moved.potential, copy, copy.D)


def _matrix_copy(t):
    """The same coordinates as a matrix space, whose Gamma is always bit rows."""
    space = ms.build_space(list(range(len(t))),
                           {"type": "matrix", "data": np.abs(t[:, None] - t[None, :])})
    assert space.line_coord is not None
    return space


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _route(space, sol, tol):
    gamma = w1.gamma_set(space, sol, tol)
    st = ry.build_transport_structure(space, gamma)
    return gamma, st, ry.partition_rays(space, st, sol)


def _assert_routes_agree(line, matrix, phi, tol):
    """Gamma, the structure and the rays of phi on `line` equal the bit route's
    on `matrix`; returns whether `line` kept Gamma as runs."""
    sol = _solution(phi)
    (gamma, st, dec), (bits, bst, bdec) = _route(line, sol, tol), _route(matrix, sol, tol)
    assert bits.runs is None
    runs = gamma.runs is not None
    for name in ("initial_points", "final_points", "transport_set_e", "branching_fwd",
                 "branching_bwd", "transport_set"):
        assert _same(getattr(st, name), getattr(bst, name)), name
    assert dec.diagnostics == bdec.diagnostics
    for name in ("orphan_points", "ray_of", "param"):
        assert _same(getattr(dec, name), getattr(bdec, name)), name
    assert len(dec.rays) == len(bdec.rays)
    for ray, other in zip(dec.rays, bdec.rays):
        assert _same(ray.points, other.points) and _same(ray.params, other.params)
        assert ray.representative == other.representative and ray.mass == other.mass
    assert gamma.count == bits.count
    # the bit rows, built on request from the runs
    assert _same(gamma.fwd, bits.fwd) and _same(gamma.bwd, bits.bwd) and _same(st.r, bst.r)
    return runs


LIPSCHITZ = ("slope", "staircase", "zigzag", "cones")


@pytest.mark.parametrize("n, offset, duplicates", GRID)
def test_run_route_equals_the_bit_route(n, offset, duplicates):
    t = _coordinates(n, offset, duplicates, seed=n)
    line, matrix = _line(t), _matrix_copy(t)
    step = float(np.median(np.diff(t))) or 1e-3
    for name, phi in _potentials(t, np.random.default_rng(n)).items():
        for tol in (0.0, 1e-12, 1e-6, step):
            runs = _assert_routes_agree(line, matrix, phi, tol)
            # at tol 0 rounding can split an exactly saturated row: the bit route
            assert runs or name not in LIPSCHITZ or tol == 0, (name, tol)


@pytest.mark.parametrize("offset", [0.0, 1e6, -3e8])
def test_run_route_equals_the_bit_route_on_ties_at_the_tolerance(offset):
    t = offset + 0.1 * np.arange(300)
    line, matrix = _line(t), _matrix_copy(t)
    for phi in (np.zeros_like(t), t - t[0], 0.5 * (t - t[0])):
        for tol in (0.1, 0.2, 0.3, 1.7):
            assert _assert_routes_agree(line, matrix, phi, tol), tol


@pytest.mark.parametrize("seed", [0, 1])
def test_cyclic_monotonicity_reads_pairs_from_the_runs(seed):
    # the same pairs in the row-major order of np.argwhere: equal reports for
    # equal rng draws, and no bit row is built
    space = ms.generate_interval_model(1.0, 2.0, np.pi, 700)[0]
    sol, tol = _solved(space, seed)
    gamma = w1.gamma_set(space, sol, tol)
    bits = w1.gamma_set(_matrix_copy(space.line_coord), sol, tol)
    assert gamma.runs is not None and bits.runs is None
    for k in (2, 3, 5):
        got = w1.check_cyclic_monotonicity(space, gamma, k=k, trials=3000,
                                           rng=np.random.default_rng(seed + k))
        assert got == w1.check_cyclic_monotonicity(space, bits, k=k, trials=3000,
                                                   rng=np.random.default_rng(seed + k))
    assert gamma._fwd is None and gamma._bwd is None


def test_runs_kept_after_the_row_pass_pack_no_bit_row(monkeypatch):
    # on a uniform grid at tol = one step, pairs tie with the tolerance, so
    # rows take the row pass; their bit rows were packed even when every
    # decided row was one run and Gamma was kept as runs
    t = 0.1 * np.arange(300)
    phi = 0.5 * t
    lo_in, hi_in, lo_out, hi_out = _line(t).saturation_runs(phi, 0.1)
    assert ((lo_out < lo_in) | (hi_in < hi_out)).any()
    monkeypatch.setattr(w1, "_packed", mock.Mock(side_effect=AssertionError("packed")))
    gamma = w1.gamma_set(_line(t), _solution(phi), 0.1)
    assert gamma.runs is not None and gamma._fwd is None and gamma._bwd is None
