"""Randomized end-to-end sweep: solve -> gamma -> rays -> disint -> monge.

Mixed space kinds and marginals; every instance must satisfy the whole
chain of invariants, including the ones that only bind on irregular
instances (branch points orphaned, passthrough bookkeeping, conservation).
"""

import numpy as np
import pytest

from needlekit import disint as di
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1


def _random_space(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        n = int(rng.integers(15, 40))
        pts = rng.random((n, 2))
        D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        return ms.build_space(list(range(n)), {"type": "matrix", "data": D})
    if kind == "graph":
        n = int(rng.integers(15, 40))
        edges = [[i, i + 1, float(rng.random() + 0.2)] for i in range(n - 1)]
        for _ in range(n // 3):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append([int(i), int(j), float(rng.random() * 2 + 0.2)])
        return ms.build_space(list(range(n)), {"type": "graph", "edges": edges})
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, int(rng.integers(40, 120)))
    return space


@pytest.mark.parametrize("kind", ["cloud", "graph", "line"])
@pytest.mark.parametrize("seed", range(6))
def test_full_pipeline_invariants(kind, seed):
    sp = _random_space(kind, seed)
    rng = np.random.default_rng(seed + 500)
    a = rng.random(sp.n) + 1e-3
    b = rng.random(sp.n) + 1e-3
    mu0 = a / a.sum()
    mu1 = b / b.sum()

    sol = w1.solve_w1(sp, mu0, mu1)
    scale = 1.0 + sol.primal_value
    assert 0 <= sol.duality_gap <= 1e-9 * scale
    assert sol.lipschitz_residual <= 1e-9 * max(sp.max_distance, 1.0)

    needles = mg.decompose(sp, sol, tol=w1.gamma_tol(sp, sol, rel=1e-10))
    g, st, dec = needles.gamma, needles.structure, needles.rays

    assert set(st.transport_set) <= set(st.transport_set_e)
    assert not (set(st.transport_set) & set(st.branching_fwd))
    assert not (set(st.transport_set) & set(st.branching_bwd))

    seen = set()
    for ray in dec.rays:
        assert len(ray.points) >= 2
        assert not (seen & set(ray.points.tolist()))       # pairwise disjoint
        seen |= set(ray.points.tolist())
        # param isometry along the ray
        P = sp.D[np.ix_(ray.points, ray.points)]
        err = np.abs(np.abs(ray.params[:, None] - ray.params[None, :]) - P).max()
        assert err <= 10 * g.tol + 1e-12

    # mass conservation over T_e
    m_te = sp.weights[st.transport_set_e].sum()
    m_parts = (sum(r.mass for r in dec.rays)
               + (sp.weights[dec.orphan_points].sum() if len(dec.orphan_points) else 0.0)
               + sp.weights[np.union1d(st.branching_fwd, st.branching_bwd)].sum())
    assert m_parts == pytest.approx(m_te, abs=1e-12)

    d_ref = di.disintegrate(sp, dec, sp.weights)
    rep = di.check_consistency(d_ref, 30, np.random.default_rng(seed))
    assert rep["consistency_max_err"] <= 1e-12

    coupling = needles.coupling
    # passthrough keeps plan pairs verbatim, so cost matches the optimum
    assert coupling.cost == pytest.approx(sol.primal_value, abs=1e-9 * scale)
    m0 = np.zeros(sp.n)
    m1 = np.zeros(sp.n)
    np.add.at(m0, coupling.pairs[:, 0], coupling.masses)
    np.add.at(m1, coupling.pairs[:, 1], coupling.masses)
    assert np.abs(m0 - mu0).max() <= 1e-10
    assert np.abs(m1 - mu1).max() <= 1e-10
