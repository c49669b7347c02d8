"""Marginals that pass the probability and balance checks but differ by
less than the LP's feasibility tolerance: `solve_w1` certifies them."""

import numpy as np
import pytest

from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1


def _cloud30():
    pts = np.random.default_rng(0).random((30, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return ms.build_space(list(range(30)), {"type": "matrix", "data": D})


@pytest.mark.parametrize("bumps, engine", [
    ({("mu0", 0): 1e-12}, "identity"),
    ({("mu0", 0): 2e-12, ("mu1", 3): 1e-12}, "highs-colgen"),
], ids=["one-signed-difference", "below-highs-feasibility-tolerance"])
def test_near_balanced_marginals_certify(bumps, engine):
    sp = _cloud30()
    mu = {"mu0": np.full(30, 1 / 30), "mu1": np.full(30, 1 / 30)}
    for (name, i), eps in bumps.items():
        mu[name][i] += eps
    sol = w1.solve_w1(sp, mu["mu0"], mu["mu1"])
    assert sol.engine == engine
    m0, m1 = np.zeros(30), np.zeros(30)
    np.add.at(m0, sol.pairs[:, 0], sol.masses)
    np.add.at(m1, sol.pairs[:, 1], sol.masses)
    assert max(np.abs(m0 - mu["mu0"]).max(), np.abs(m1 - mu["mu1"]).max()) <= 1e-10
    assert sol.duality_gap <= 1e-9 and sol.lipschitz_residual <= 1e-9
    needles = mg.decompose(sp, sol)
    assert needles.coupling.cost == pytest.approx(sol.primal_value, abs=1e-12)
