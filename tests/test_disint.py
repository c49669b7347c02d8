import numpy as np
import pytest

from needlekit import disint as di
from needlekit import mmspace as ms
from needlekit import rays as ry
from needlekit import w1solve as w1
from needlekit.errors import NotMeanZero
from needlekit.selftest import _grid_construction


def _interval_decomposition(n=300):
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, n)
    t = space.line_coord
    mu0 = np.where(t < np.pi / 2, space.weights, 0.0)
    mu0 /= mu0.sum()
    mu1 = np.where(t >= np.pi / 2, space.weights, 0.0)
    mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol)
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    return space, sol, dec


def test_single_ray_conditional_is_measure():
    space, sol, dec = _interval_decomposition()
    d = di.disintegrate(space, dec, space.weights)
    assert len(d.quotient_weights) == 1
    assert d.quotient_weights[0] == pytest.approx(1.0, abs=1e-12)
    ray = dec.rays[0]
    assert np.allclose(d.conditionals[0], space.weights[ray.points], atol=1e-15)
    assert d.residual_mass == pytest.approx(0.0, abs=1e-12)


def test_grid_rows_uniform_conditionals():
    sp, sol, f, st, dec = _grid_construction()
    d = di.disintegrate(sp, dec, sp.weights)
    # oracle: direct counting, uniform weights -> uniform conditional per row
    for cond, ray in zip(d.conditionals, dec.rays):
        assert np.allclose(cond, 1.0 / len(ray.points), atol=1e-15)
        assert max(c.max() for c in d.conditionals) <= 1.0 / len(ray.points) + 1e-15
    assert np.allclose(d.quotient_weights, [r.mass for r in dec.rays], atol=1e-15)


def test_measure_off_transport_set():
    # identity marginals: empty decomposition, all mass residual
    sp, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 32)
    sol = w1.solve_w1(sp, sp.weights, sp.weights)
    g = w1.gamma_set(sp, sol, tol=1e-13)
    st = ry.build_transport_structure(sp, g)
    dec = ry.partition_rays(sp, st, sol)
    d = di.disintegrate(sp, dec, sp.weights)
    assert len(d.conditionals) == 0
    assert d.residual_mass == pytest.approx(1.0, abs=1e-15)


def test_consistency_trivial_and_random():
    sp, sol, f, st, dec = _grid_construction()
    d = di.disintegrate(sp, dec, sp.weights)
    rep = di.check_consistency(d, 100, np.random.default_rng(1))
    assert rep["consistency_max_err"] <= 1e-12


def test_reconstruction_identity():
    sp, sol, f, st, dec = _grid_construction()
    for measure in (sp.weights, sol.mu0):
        d = di.disintegrate(sp, dec, measure)
        # sum over rays of quotient weight times conditional, pointwise
        rebuilt = np.zeros(sp.n)
        on_ray = np.zeros(sp.n, dtype=bool)
        for w, cond, ray in zip(d.quotient_weights, d.conditionals, dec.rays):
            if len(cond):
                rebuilt[ray.points] += w * cond
            on_ray[ray.points] = True
        residual = np.where(on_ray, 0.0, measure)
        assert np.abs(rebuilt + residual - measure).max() <= 1e-12


def test_balance_zero_function():
    space, sol, dec = _interval_decomposition()
    rep = di.check_balance(space, dec, np.zeros(space.n))
    assert rep["max_abs"] == 0.0


def test_balance_single_ray_exact():
    space, sol, dec = _interval_decomposition()
    t = space.line_coord
    f = (t <= 1.0).astype(float)
    f -= f @ space.weights
    rep = di.check_balance(space, dec, f)
    assert rep["max_abs"] <= 1e-12
    assert rep["n_rays"] == 1


def test_balance_not_mean_zero():
    space, sol, dec = _interval_decomposition()
    with pytest.raises(NotMeanZero):
        di.check_balance(space, dec, np.ones(space.n))


def test_balance_convergence_on_refining_intervals():
    # spec invariant: max per-ray balance nonincreasing in n for f = chi_[0,r] - v
    vals = []
    for n in (250, 500, 1000, 2000):
        space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, n)
        t = space.line_coord
        f = (t <= 1.2).astype(float)
        f -= f @ space.weights
        mu0 = np.clip(f, 0, None) * space.weights
        mu1 = np.clip(-f, 0, None) * space.weights
        mu0 /= mu0.sum()
        mu1 /= mu1.sum()
        sol = w1.solve_w1(space, mu0, mu1)
        g = w1.gamma_set(space, sol)
        st = ry.build_transport_structure(space, g)
        dec = ry.partition_rays(space, st, sol)
        vals.append(di.check_balance(space, dec, f)["max_abs"])
    assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))


def test_zero_mass_ray_flagged():
    # two disjoint transport blocks; a measure on one block starves the other ray
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 200)
    t = space.line_coord
    w = space.weights
    mu0 = np.where(t < 0.2, w, 0.0) + np.where((t > 0.5) & (t < 0.7), w, 0.0)
    mu1 = np.where((t > 0.3) & (t < 0.5), w, 0.0) + np.where(t > 0.8, w, 0.0)
    mu0 /= mu0.sum()
    mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol, tol=1e-10)
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    assert len(dec.rays) == 2
    measure = np.where(t < 0.5, w, 0.0)
    measure /= measure.sum()
    d = di.disintegrate(space, dec, measure)
    assert len(d.zero_mass_rays) == 1
    q = d.zero_mass_rays[0]
    assert d.quotient_weights[q] == 0.0 and len(d.conditionals[q]) == 0

