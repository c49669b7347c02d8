"""The ray map of `partition_rays` (`RayDecomposition.ray_of` and `param`)
against per-ray loops, and the disintegration that reads it."""

import numpy as np
import pytest

from needlekit import disint as di
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1
from needlekit.selftest import _grid_construction


def _interval():
    sp, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 300)
    rng = np.random.default_rng(3)
    a, b = rng.random(sp.n) + 1e-3, rng.random(sp.n) + 1e-3
    return sp, mg.decompose(sp, w1.solve_w1(sp, a / a.sum(), b / b.sum()))


def _caps():
    sp = ms.generate_sphere_sample(2, 200, seed=4)
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    mu0, mu1 = np.zeros(sp.n), np.zeros(sp.n)
    mu0[order[:50]] = mu1[order[-50:]] = 1 / 50
    return sp, mg.decompose(sp, w1.solve_w1(sp, mu0, mu1))


def _cloud():
    rng = np.random.default_rng(1)
    pts = rng.random((150, 2))
    D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    sp = ms.build_space(list(range(150)), {"type": "matrix", "data": D})
    a, b = rng.random(sp.n), rng.random(sp.n)
    return sp, mg.decompose(sp, w1.solve_w1(sp, a / a.sum(), b / b.sum()))


def _grid():
    sp, sol, _, _, _ = _grid_construction()
    return sp, mg.decompose(sp, sol)


def _identity():
    sp, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 32)
    return sp, mg.decompose(sp, w1.solve_w1(sp, sp.weights, sp.weights), tol=1e-13)


INSTANCES = {"interval": _interval, "caps": _caps, "cloud": _cloud, "grid": _grid,
             "identity": _identity}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


def test_ray_map_matches_the_rays(instance):
    sp, needles = instance
    dec = needles.rays
    ray_of = np.full(sp.n, -1)
    param = np.zeros(sp.n)
    for k, ray in enumerate(dec.rays):
        assert np.array_equal(dec.param[ray.points], ray.params)    # bit for bit
        ray_of[ray.points] = k
        param[ray.points] = ray.params
    assert dec.ray_of.dtype == np.int64 and np.array_equal(dec.ray_of, ray_of)
    assert np.array_equal(dec.param, param)
    T = needles.structure.transport_set
    on_rays = set(np.flatnonzero(ray_of >= 0).tolist())
    assert dec.orphan_points.tolist() == sorted(set(T.tolist()) - on_rays)
    assert on_rays <= set(T.tolist())


def _disintegrate_by_rays(dec, measure):
    """The disintegration ray by ray: restriction, renormalized."""
    weights = np.array([measure[ray.points].sum() for ray in dec.rays])
    conds = [measure[ray.points] / w if w > 0 else np.zeros(0)
             for ray, w in zip(dec.rays, weights)]
    return weights, conds


def test_disintegration_matches_ray_loops(instance):
    sp, needles = instance
    dec, sol = needles.rays, needles.solution
    for measure in (sp.weights, sol.mu0, sol.mu1):
        d = di.disintegrate(sp, dec, measure)
        weights, conds = _disintegrate_by_rays(dec, measure)
        assert d.quotient_weights.dtype == float
        assert np.abs(d.quotient_weights - weights).max(initial=0) <= 1e-14
        assert np.array_equal(d.zero_mass_rays, np.flatnonzero(~(weights > 0)))
        assert [len(c) for c in d.conditionals] == [len(c) for c in conds]
        for got, want in zip(d.conditionals, conds):
            assert np.abs(got - want).max(initial=0) <= 1e-14
        assert d.residual_mass == pytest.approx(measure.sum() - weights.sum(), abs=1e-14)


def test_balance_matches_ray_loops(instance):
    sp, needles = instance
    dec, sol = needles.rays, needles.solution
    f = (sol.mu0 - sol.mu1) / sp.weights
    f -= f @ sp.weights
    rep = di.check_balance(sp, dec, f)
    weights, conds = _disintegrate_by_rays(dec, sp.weights)
    per_ray = [f[ray.points] @ c if len(c) else 0.0 for ray, c in zip(dec.rays, conds)]
    assert rep["n_rays"] == len(dec.rays)
    assert np.allclose(rep["per_ray"], per_ray, rtol=1e-12, atol=1e-14)


def test_consistency_holds_and_sees_a_broken_conditional(instance):
    sp, needles = instance
    dec = needles.rays
    d = di.disintegrate(sp, dec, sp.weights)
    rng = np.random.default_rng(2)
    B = [rng.random(sp.n) < 0.5 for _ in range(5)]
    C = [np.flatnonzero(rng.random(len(dec.rays)) < 0.5) for _ in range(5)]
    rep = di.check_consistency(d, test_sets=B, ray_subsets=C)
    assert rep["pairs_tested"] == 5 and rep["consistency_max_err"] <= 1e-14
    if dec.rays:
        d.conditionals[0] = 2 * d.conditionals[0]
        rep = di.check_consistency(d, 50, np.random.default_rng(0))
        # the whole space against all rays is off by the first ray's weight
        assert rep["consistency_max_err"] >= 0.5 * d.quotient_weights[0]
