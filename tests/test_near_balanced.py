"""Marginals that pass the probability and balance checks but differ by
up to the balance check's 1e-10: `solve_w1` certifies them, below the
LP's feasibility tolerance and beyond it."""

import numpy as np
import pytest

from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1


def _cloud30():
    pts = np.random.default_rng(0).random((30, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return ms.build_space(list(range(30)), {"type": "matrix", "data": D})


def _marginals_apart(gap):
    """Random positive marginals on 30 points, mu0's total gap above mu1's."""
    rng = np.random.default_rng(1)
    a, b = rng.random(30) + 1e-3, rng.random(30) + 1e-3
    mu0, mu1 = a / a.sum() + gap / 30, b / b.sum()
    assert abs(mu0.sum() - mu1.sum()) <= 1e-10      # within solve_w1's balance check
    return mu0, mu1


def _assert_certified(sp, sol, mu0, mu1):
    m0, m1 = np.zeros(sp.n), np.zeros(sp.n)
    np.add.at(m0, sol.pairs[:, 0], sol.masses)
    np.add.at(m1, sol.pairs[:, 1], sol.masses)
    assert max(np.abs(m0 - mu0).max(), np.abs(m1 - mu1).max()) <= 1e-10
    assert sol.duality_gap <= 1e-9 and sol.lipschitz_residual <= 1e-9
    needles = mg.decompose(sp, sol)
    assert needles.coupling.cost == pytest.approx(sol.primal_value, abs=1e-12)


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
    _assert_certified(sp, sol, mu["mu0"], mu["mu1"])


@pytest.mark.parametrize("gap", [3e-11, 6e-11, 9e-11])
def test_arc_generation_certifies_beyond_lp_feasibility_tolerance(gap):
    # the restricted LP's rows are scaled by _LP_SCALE, so HiGHS's 1e-10
    # feasibility tolerance holds only 1.25e-11 of imbalance between totals
    sp = _cloud30()
    mu0, mu1 = _marginals_apart(gap)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "highs-colgen"
    _assert_certified(sp, sol, mu0, mu1)


def test_line_engine_couples_both_totals_at_the_balance_limit():
    # both marginals are quantized on one total, so the larger one's excess
    # is spread over its atoms instead of left uncoupled on the last ones
    sp, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 30)
    mu0, mu1 = _marginals_apart(1e-10)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "line"
    _assert_certified(sp, sol, mu0, mu1)
