"""Distances by row: the `MMSpace` accessors, and guards that a space built
from coordinates never gets its n x n matrix built by the library."""

import ast
import inspect
import pathlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from needlekit import isoperim as iso
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "needlekit"


def _dense(t):
    D = t[:, None] - t[None, :]
    return np.abs(D, out=D)


def _coordinate_space(t):
    return ms.MMSpace(list(range(len(t))), None, np.full(len(t), 1 / len(t)),
                      kind="interval", line_coord=t)


def _cloud(n, seed):
    pts = np.random.default_rng(seed).random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return ms.build_space(list(range(n)), {"type": "matrix", "data": D})


@pytest.mark.parametrize("case", ["interval", "unsorted-coordinates", "cloud"])
def test_accessors_match_the_dense_matrix(case):
    # 1100 points: row blocks of 29 rows, the last one short
    if case == "interval":
        space = ms.generate_interval_model(1.0, 2.0, np.pi, 1100)[0]
        D = _dense(space.line_coord)
    elif case == "unsorted-coordinates":
        t = np.random.default_rng(3).normal(size=1100) * 7
        t[10:15] = t[500]                  # distinct points at distance 0
        space, D = _coordinate_space(t), _dense(t)
    else:
        space = _cloud(1100, 1)
        D = space.D
    n = space.n
    assert np.array_equal(space.D, D)
    idx, cols = np.array([5, 0, n - 1, 5]), np.array([3, 3, 1000])
    assert np.array_equal(space.rows(idx, cols), D[np.ix_(idx, cols)])
    assert np.array_equal(space.rows(slice(10, 20), cols), D[10:20][:, cols])
    assert np.array_equal(space.rows([7])[0], D[7])
    assert np.array_equal(space.dist(idx[:, None], cols), D[idx[:, None], cols])
    blocks = [block.copy() for _, _, block in space.row_blocks()]
    assert len(blocks) > 3 and len(blocks[-1]) < len(blocks[0])
    assert np.array_equal(np.vstack(blocks), D)
    picked = [block.copy() for _, _, block in space.row_blocks(idx, cols)]
    assert np.array_equal(np.vstack(picked), D[np.ix_(idx, cols)])
    assert space.max_distance == float(D.max())
    assert space.mesh == float((D + np.diag(np.full(n, np.inf))).min(axis=1).max())


def test_coordinate_matrix_is_built_afresh():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 50)
    first = space.D
    first[0, 1] = -1.0
    assert space.D[0, 1] == space.line_coord[1] and space.D is not space.D


def test_interval_pipeline_never_builds_the_matrix():
    # solve -> decompose and Levy-Gromov read distances by row blocks and
    # pairs only; space.D would build all n x n of them
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 2000)
    shapes = []
    rows = ms.MMSpace.rows

    def spy(self, idx, cols=None, out=None):
        block = rows(self, idx, cols, out)
        shapes.append(block.shape)
        return block

    def forbidden(self):
        pytest.fail("space.D read on an interval space")

    with mock.patch.object(ms.MMSpace, "rows", spy), \
            mock.patch.object(ms.MMSpace, "D", property(forbidden)):
        sol = w1.solve_w1(space, *iso.zero_mean_split(space, np.random.default_rng(0)))
        mg.decompose(space, sol)
        rep = iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, np.pi), [0.5],
                                    candidate_budget=4)
    assert rep["verdict"] == "pass"
    assert shapes and max(r for r, _ in shapes) < space.n // 8


def test_interval_pipeline_memory_is_below_two_n_squared():
    # a dense D alone is 8 n^2 bytes; a dense Gamma mask and R, 2 n^2
    n = 8000
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, n)
    rng = np.random.default_rng(0)
    a, b = rng.random(n) + 1e-3, rng.random(n) + 1e-3
    tracemalloc.start()
    try:
        needles = mg.decompose(space, w1.solve_w1(space, a / a.sum(), b / b.sum()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert needles.rays.rays
    assert peak <= 2 * n * n


def test_only_mmspace_reads_the_matrix():
    # the rest of src/ reads distances through rows, row_blocks and dist;
    # ModelProfileSpec.D (the model's diameter) is another attribute
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mmspace.py":
            continue
        tree = ast.parse(path.read_text())
        spec = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "ModelProfileSpec"
                for node in ast.walk(cls)}
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("D", "_matrix")
                      and id(node) not in spec
                      and not (isinstance(node.value, ast.Name) and node.value.id == "spec")]
    assert offenders == []


def _grid_graph(k, seed):
    rng = np.random.default_rng(seed)
    edges = [[v, v + 1, rng.uniform(0.5, 1.5)] for v in range(k * k) if (v + 1) % k]
    edges += [[v, v + k, rng.uniform(0.5, 1.5)] for v in range(k * k - k)]
    return ms.build_space(list(range(k * k)), {"type": "graph", "edges": edges})


@pytest.mark.parametrize("case", ["matrix", "graph", "interval"]
                         + [f"sphere-{n}-{seed}" for n in (100, 257, 1000, 2000)
                            for seed in (0, 1, 2)])
def test_distances_are_bit_symmetric(case):
    # w1solve.gamma_set reads Gamma^-1 off the rows of Gamma's own pass,
    # which is exact only while d(x, y) == d(y, x) bit for bit
    if case == "matrix":
        # rounding-level asymmetry within validation tolerance
        D = _cloud(120, 5).D + 1e-15 * np.random.default_rng(5).random((120, 120))
        np.fill_diagonal(D, 0.0)
        space = ms.build_space(list(range(120)), {"type": "matrix", "data": D})
    elif case == "graph":
        space = _grid_graph(12, 6)
    elif case == "interval":
        space = ms.generate_interval_model(1.0, 2.0, np.pi, 777)[0]
    else:
        n, seed = map(int, case.split("-")[1:])
        space = ms.generate_sphere_sample(2, n, seed)
    D = space.rows(slice(None))
    assert np.array_equal(D, D.T)


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node


def test_one_owner_for_bit_rows_and_row_blocks():
    # only w1solve packs, unpacks or byte-views bit rows; only mmspace
    # sizes a row block (TRIPLE_BLOCK counts sampled triples); bits are
    # packed by rows only, Gamma^-1 too (w1solve.gamma_set)
    bits, blocks, columns = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        columns += [f"{path.name}:{node.lineno}" for node in _calls(tree)
                    if node.func.attr == "packbits"
                    and [ast.unparse(k) for k in node.keywords] != ["axis=1"]]
        columns += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("_packed")
                    and (len(node.args) != 1 or node.keywords)]
        if path.name != "w1solve.py":
            bits += [f"{path.name}:{node.lineno}" for node in _calls(tree)
                     if node.func.attr in ("packbits", "unpackbits")
                     or (node.func.attr == "view" and ast.unparse(node.args) == "np.uint8")]
        names = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
        blocks += [f"{path.name}:{name}" for name in sorted(names) if "BLOCK" in name]
    assert bits == [] and columns == []
    assert list(inspect.signature(w1._packed).parameters) == ["M"]
    # `.mask` and `.R` unpack Gamma's bit rows for inspection only, and only
    # gamma_set makes a GammaSet
    dense, makers = [], []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in ("mask", "R"):
                    dense.append(f"{path.name}:{func.name}:.{node.attr}")
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id == "_unpacked":
                        dense.append(f"{path.name}:{func.name}:_unpacked")
                    if node.func.id == "GammaSet":
                        makers.append(f"{path.name}:{func.name}")
    assert sorted(dense) == ["rays.py:R:_unpacked", "w1solve.py:mask:_unpacked"]
    assert makers == ["w1solve.py:gamma_set"]
    assert blocks == ["mmspace.py:TRIPLE_BLOCK", "mmspace.py:_ROW_BLOCK"]
    assert not hasattr(ms, "_row_blocks") and not hasattr(ms, "_BLOCK")


def _needles_record(space, mu0, mu1):
    sol = w1.solve_w1(space, mu0, mu1)
    needles = mg.decompose(space, sol)
    rays = [(ray.points.tobytes(), ray.params.tobytes(), ray.representative)
            for ray in needles.rays.rays]
    return (sol.pairs.tobytes(), sol.masses.tobytes(), sol.potential.tobytes(),
            sol.slack_floor, [(r["margin"], r["outcome"]) for r in sol.tightening["rungs"]],
            needles.gamma.fwd.tobytes(), needles.gamma.bwd.tobytes(), rays,
            needles.rays.orphan_points.tobytes())


@pytest.mark.parametrize("case", ["cap", "cloud"])
def test_row_block_size_changes_no_result(case):
    # the block size sets only how many violated edges a tightening round adds
    if case == "cap":
        space = ms.generate_sphere_sample(2, 200, 0)
        order = np.argsort(-space.coords[:, 2], kind="stable")
        mu0, mu1 = np.zeros(space.n), np.zeros(space.n)
        mu0[order[:50]] = mu1[order[-50:]] = 1.0 / 50
    else:
        space = _cloud(150, 4)
        rng = np.random.default_rng(4)
        a, b = rng.random(space.n) + 1e-3, rng.random(space.n) + 1e-3
        mu0, mu1 = a / a.sum(), b / b.sum()
    expected = _needles_record(space, mu0, mu1)
    for size in (64, 1 << 20):
        with mock.patch.object(ms, "_ROW_BLOCK", size):
            assert _needles_record(space, mu0, mu1) == expected


def test_pairs_within_is_built_once_under_contention():
    # more threads than cores ask for one graph at once, at a short switch
    # interval; the lock leaves one build, which every thread gets, and a
    # new radius replaces it. Sorted interval models build by runs, other
    # spaces by row blocks: the spy counts the build step both share
    interval = ms.generate_interval_model(0.0, 2.0, 1.0, 1500)[0]
    matrix = ms.build_space(list(range(300)), {"type": "matrix", "data": interval.D[:300, :300]})
    for space in (interval, matrix):
        R, threads = 0.01, 16
        built = []
        build = ms.MMSpace._pairs_graph

        def counting(self, R):
            built.append(self)
            return build(self, R)

        start = threading.Barrier(threads)

        def ask(_):
            start.wait(timeout=60)
            return space.pairs_within(R)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(ms.MMSpace, "_pairs_graph", counting), \
                    ThreadPoolExecutor(max_workers=threads) as pool:
                graphs = list(pool.map(ask, range(threads), timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert len(built) == 1 and all(g is graphs[0] for g in graphs)
        indptr, cols, data = graphs[0]
        D = space.D
        near = D < R
        assert np.array_equal(indptr, np.r_[0, np.cumsum(near.sum(axis=1))])
        assert np.array_equal(cols, np.nonzero(near)[1]) and np.array_equal(data, D[near])
        assert space.pairs_within(R) is graphs[0] and space.pairs_within(R / 2) is not graphs[0]


@pytest.mark.parametrize("kind", ["duplicates", "offset 1e6", "offset -3e8", "random"])
def test_pairs_within_runs_match_the_row_pass(kind):
    # sorted coordinates take the run bisection; the same coordinates
    # reversed are unsorted and take the row pass, which is the reference.
    # Radii include 0, every small gap between coordinates, one ulp below
    # each, and the distance of a repeated coordinate to its neighbours
    rng = np.random.default_rng(len(kind))
    for n in (1, 2, 17, 64, 65, 300):
        t = np.sort(rng.random(n))
        if kind == "duplicates":
            t = np.sort(np.round(7 * rng.random(n)) / 7)
        elif kind != "random":
            t = t + float(kind.split()[1])
        gaps = np.diff(np.unique(t))[:4]
        for R in [0.0, 1e-300, 0.05, 1.0, np.inf, *gaps, *np.nextafter(gaps, 0), *(t[:4] - t[0])]:
            runs = _coordinate_space(t)._pairs_graph(R)
            rows = _coordinate_space(t[::-1])._pairs_graph(R)
            back = n - 1 - np.arange(n)     # the reversed space's rows, in sorted order
            indptr = np.r_[0, np.cumsum(np.diff(rows[0])[back])]
            assert np.array_equal(runs[0], indptr), (n, R)
            assert runs[1].dtype == np.int32
            for x in range(n):
                got = slice(runs[0][x], runs[0][x + 1])
                want = slice(rows[0][back[x]], rows[0][back[x] + 1])
                assert np.array_equal(runs[1][got], np.sort(back[rows[1][want]])), (n, R, x)
                assert np.array_equal(runs[2][got], rows[2][want][::-1]), (n, R, x)


def test_rays_reads_bits_and_only_mmspace_walks_the_triangle():
    # rays reads Gamma and R as bit rows and distances only along its chains
    # (`dist`); the triangle walk, rows over a column slice, is built in
    # mmspace alone and read only by the Lipschitz certificate
    called = {node.func.attr for node in _calls(ast.parse((SRC / "rays.py").read_text()))}
    assert not called & {"rows", "row_blocks", "triangle_blocks", "pairs_within"}
    walks, sliced, readers = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        walks += [f"{path.name}:{node.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and "triangle" in node.name]
        if path.name != "mmspace.py":
            sliced += [f"{path.name}:{node.lineno}" for node in _calls(tree)
                       if node.func.attr == "rows"
                       and "slice(" in ast.unparse(node.args[1:] + [k.value for k in node.keywords])]
        readers += [f"{path.name}:{fn.name}" for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    for node in _calls(fn) if node.func.attr == "triangle_blocks"]
    assert walks == ["mmspace.py:triangle_blocks"] and sliced == []
    assert readers == ["w1solve.py:_lipschitz_residual"]
