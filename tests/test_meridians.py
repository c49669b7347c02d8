"""A sphere sample whose needles are known: k meridians of S^2.

k meridians at longitudes 2 pi j / k, each with m points at colatitudes
(i + 1/2) pi / m, weights proportional to sin(theta), great-circle
distances. For f = cos(theta), centred, the exact needles are the k
meridians: the potential is -theta, each meridian balances f, and
W1 = pi / 2.

Pinned here: W1, k rays each inside one meridian with no orphans, and
whole meridians from the exact potential. The solver's own potential
leaves points of the polar rings off the rays and per-needle balance
well above 1e-12 (dust plan pairs and forced pairs); those two numbers
are printed, not bounded, so a fix needs no edit here.
"""

import numpy as np
import pytest

from needlekit import disint as di
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1

K, M = 16, 64


def _meridians(k, m):
    """The k x m meridian sample, point j m + i at longitude j and colatitude
    i; returns the space and each point's colatitude."""
    theta = np.tile((np.arange(m) + 0.5) * np.pi / m, k)
    lon = np.repeat(2 * np.pi * np.arange(k) / k, m)
    pts = np.stack([np.sin(theta) * np.cos(lon), np.sin(theta) * np.sin(lon), np.cos(theta)],
                   axis=1)
    space = ms.build_space(range(k * m), {"type": "matrix", "data": ms.great_circle_matrix(pts)},
                           np.sin(theta))
    return space, theta


@pytest.fixture(scope="module")
def sample():
    space, theta = _meridians(K, M)
    f = np.cos(theta)
    f -= f @ space.weights
    mu0, mu1 = np.maximum(f, 0) * space.weights, np.maximum(-f, 0) * space.weights
    sol = w1.solve_w1(space, mu0 / mu0.sum(), mu1 / mu1.sum())
    return space, theta, f, sol


def _assert_on_meridians(dec, whole):
    meridian = [np.unique(ray.points // M) for ray in dec.rays]
    assert len(dec.rays) == K and all(len(j) == 1 for j in meridian)
    assert sorted(int(j[0]) for j in meridian) == list(range(K))
    assert len(dec.orphan_points) == 0
    if whole:
        assert all(len(ray.points) == M for ray in dec.rays)


def test_the_sample_is_a_metric_that_is_not_a_line(sample):
    space = sample[0]
    assert space.n == K * M and space.line_coord is None


def test_w1_is_half_pi(sample):
    assert sample[3].primal_value == pytest.approx(np.pi / 2, rel=0, abs=1e-12)


def test_solver_potential_gives_one_ray_per_meridian(sample):
    space, _, f, sol = sample
    dec = mg.decompose(space, sol).rays
    _assert_on_meridians(dec, whole=False)
    off = int((dec.ray_of < 0).sum())
    balance = di.check_balance(space, dec, f)["max_abs"]
    print(f"\n{K}x{M} meridians, solver potential: {off} points off the rays, "
          f"per-needle balance {balance:.2e}")


def test_exact_potential_gives_whole_meridians(sample):
    # the plan without its dust, the pairs below one mass quantum
    space, theta, f, sol = sample
    keep = sol.masses >= 1.0 / w1.MASS_SCALE
    exact = w1.from_certificate(space, sol.mu0, sol.mu1, sol.pairs[keep], sol.masses[keep],
                                -theta)
    dec = mg.decompose(space, exact).rays
    _assert_on_meridians(dec, whole=True)
    assert di.check_balance(space, dec, f)["max_abs"] <= 1e-12
