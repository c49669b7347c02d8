"""`decompose` against the stage-by-stage chain it replaces.

The oracle calls gamma_set -> build_transport_structure -> partition_rays
-> condition_target_via_plan -> assemble_monge_map by hand; every array
`decompose` returns must be byte-equal to the oracle's.
"""

import numpy as np
import pytest

import needlekit as nk
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import rays as ry
from needlekit import w1solve as w1
from needlekit.selftest import _grid_construction


def _hand_chain(space, sol, tol):
    gamma = w1.gamma_set(space, sol, tol=tol)
    structure = ry.build_transport_structure(space, gamma)
    dec = ry.partition_rays(space, structure, sol)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    return gamma, structure, dec, mg.assemble_monge_map(space, dec, None, cond)


def _line():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 300)
    rng = np.random.default_rng(1)
    a, b = rng.random(space.n) + 1e-3, rng.random(space.n) + 1e-3
    return space, w1.solve_w1(space, a / a.sum(), b / b.sum())


def _cap():
    space = ms.generate_sphere_sample(2, 200, 0)
    order = np.argsort(-space.coords[:, 2], kind="stable")
    mu0, mu1 = np.zeros(space.n), np.zeros(space.n)
    mu0[order[:50]] = mu1[order[-50:]] = 1.0 / 50
    return space, w1.solve_w1(space, mu0, mu1)


def _cloud():
    rng = np.random.default_rng(2)
    pts = rng.random((80, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    space = ms.build_space(list(range(80)), {"type": "matrix", "data": D})
    a, b = rng.random(space.n) + 1e-3, rng.random(space.n) + 1e-3
    return space, w1.solve_w1(space, a / a.sum(), b / b.sum())


def _grid():
    space, sol, *_ = _grid_construction()
    return space, sol


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("build, engine", [(_line, "line"), (_cap, "assignment"),
                                           (_cloud, "highs-colgen"), (_grid, "certificate")],
                         ids=["line", "cap", "cloud", "grid"])
def test_decompose_equals_hand_chain(build, engine):
    space, sol = build()
    assert sol.engine == engine
    default = w1.gamma_tol(space, sol)
    for tol in (None, default, w1.gamma_tol(space, sol, rel=1e-10)):
        needles = nk.decompose(space, sol, tol=tol)
        gamma, structure, dec, coupling = _hand_chain(space, sol, tol)
        assert needles.solution is sol
        assert needles.gamma.tol == gamma.tol == (default if tol is None else tol)
        assert _same(needles.gamma.mask, gamma.mask)
        assert _same(needles.structure.R, structure.R)
        assert len(needles.rays.rays) == len(dec.rays)
        for mine, theirs in zip(needles.rays.rays, dec.rays):
            assert _same(mine.points, theirs.points) and _same(mine.params, theirs.params)
        assert _same(needles.rays.orphan_points, dec.orphan_points)
        assert _same(needles.coupling.pairs, coupling.pairs)
        assert _same(needles.coupling.masses, coupling.masses)
    assert len(dec.rays) + len(dec.orphan_points) > 0


def test_coupling_keeps_the_plan_marginals_and_cost_on_a_4000_point_interval():
    # the coupling was quantized at 1e-12 while the plan is at 1e-14: its
    # marginals were off by 1.4e-12 here
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 4000)
    rng = np.random.default_rng(0)
    a, b = rng.random(space.n) + 1e-3, rng.random(space.n) + 1e-3
    sol = w1.solve_w1(space, a / a.sum(), b / b.sum())
    coupling = nk.decompose(space, sol).coupling
    (i, j), m = coupling.pairs.T, coupling.masses
    assert np.abs(np.bincount(i, m, space.n) - sol.mu0).max() <= 1e-13
    assert np.abs(np.bincount(j, m, space.n) - sol.mu1).max() <= 1e-13
    assert abs(coupling.cost - sol.primal_value) <= 1e-13 * (1 + sol.primal_value)
