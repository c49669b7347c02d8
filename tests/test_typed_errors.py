"""Out-of-range parameters raise a `BadParameter` subclass (also a ValueError);
a bad graph edge is a `MetricViolation`."""

import warnings

import numpy as np
import pytest

from needlekit import curvature as cv
from needlekit import disint as di
from needlekit import isoperim as iso
from needlekit import mmspace as ms
from needlekit import monge1d as mg
from needlekit import w1solve as w1
from needlekit.errors import BadDiameter, BadParameter, BadVolume, MetricViolation

GRID = np.linspace(0.0, 1.0, 5)


def _model():
    return ms.model_density(1.0, 2.0, np.pi, 50)


def _interval():
    return ms.generate_interval_model(0.0, 2.0, 1.0, 64)[0]


def _solved():
    space = _interval()
    return space, w1.solve_w1(space, *iso.zero_mean_split(space, np.random.default_rng(0)))


def _gamma():
    space, sol = _solved()
    return space, w1.gamma_set(space, sol)


def _rays():
    space, sol = _solved()
    return space, mg.decompose(space, sol).rays


def _disintegration():
    space, rays = _rays()
    return di.disintegrate(space, rays, space.weights)


def _consistency_past_the_rays():
    # ray index len(rays) read the slot of the points off the rays
    d = _disintegration()
    return di.check_consistency(d, test_sets=[np.ones(64, bool)],
                                ray_subsets=[[len(d.decomposition.rays)]])


CASES = {
    "sigma-t": lambda: cv.sigma(1.0, 2.0, 1.5, 0.1),
    "sigma-theta": lambda: cv.sigma(1.0, 2.0, 0.5, -0.1),
    "sigma-nan-theta": lambda: cv.sigma(0.0, 2.0, np.full(4, 0.5), np.full(4, np.nan)),
    "cd-triple-order": lambda: cv.cd_density_check(_model(), 1.0, 2.0, [[1.0, 0.5, 0.5]]),
    "mcp-quadruple-order": lambda: cv.mcp_density_check(_model(), 1.0, 2.0,
                                                        [[0.5, 0.4, 1.0, 2.0]]),
    "mollify-eps": lambda: cv.mollify_density(_model(), 2.0, 0.0),
    "minkowski-eps": lambda: iso.minkowski_content(_interval(), np.ones(64, bool), [-0.1, 0.2]),
    "minkowski-eps-nan": lambda: iso.minkowski_content(_interval(), np.ones(64, bool), [np.nan]),
    "minkowski-eps-empty": lambda: iso.minkowski_content(_interval(), np.ones(64, bool), []),
    "cyclic-monotonicity-k": lambda: w1.check_cyclic_monotonicity(None, None, k=1),
    "cyclic-monotonicity-trials": lambda: w1.check_cyclic_monotonicity(None, None, trials=0),
    # a fractional k or trials leaked numpy's TypeError
    "cyclic-monotonicity-k-fraction": lambda: w1.check_cyclic_monotonicity(*_gamma(), k=2.5),
    "cyclic-monotonicity-trials-fraction": lambda: w1.check_cyclic_monotonicity(
        *_gamma(), trials=2.5),
    # NaN failed later as a NaN Gamma tol, inf put every pair in Gamma, and a
    # negative rel gave 4 support_residual
    "gamma-tol-rel-nan": lambda: w1.gamma_tol(*_solved(), rel=np.nan),
    "gamma-tol-rel-inf": lambda: w1.gamma_tol(*_solved(), rel=np.inf),
    "gamma-tol-rel-negative": lambda: w1.gamma_tol(*_solved(), rel=-1.0),
    "density-shape": lambda: ms.Density1D(GRID, np.ones(4)),
    "density-grid-order": lambda: ms.Density1D(GRID[::-1], np.ones(5)),
    "density-values": lambda: ms.Density1D(GRID, -np.ones(5)),
    "density-integral": lambda: ms.Density1D(GRID, np.zeros(5)),
    "model-profile-volume": lambda: iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, np.pi), 1.5),
    "levy-gromov-volume": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [-0.2]),
    "levy-gromov-empty-grid": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), []),
    # an unbounded model reads 0, so any space passed against it
    "levy-gromov-infinite-D-flat": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, np.inf), [0.5]),
    "levy-gromov-infinite-D-negative-K": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(-1.0, 2.0, np.inf), [0.5]),
    # NaN reported a fail, inf passed anything, a negative one was taken
    "levy-gromov-allowance-nan": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [0.5], allowance=np.nan),
    "levy-gromov-allowance-inf": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [0.5], allowance=np.inf),
    "levy-gromov-allowance-negative": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [0.5], allowance=-0.1),
    # a budget below 1 was clamped to one ball
    "empirical-profile-budget-zero": lambda: iso.empirical_profile(
        _interval(), 0.5, candidate_budget=0),
    "levy-gromov-budget-negative": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [0.5], candidate_budget=-3),
    "empirical-profile-budget-nan": lambda: iso.empirical_profile(
        _interval(), 0.5, candidate_budget=np.nan),
    # a fractional or boolean count leaked numpy's or the model's TypeError,
    # or was taken as one ball
    "empirical-profile-budget-fraction": lambda: iso.empirical_profile(
        _interval(), 0.5, candidate_budget=2.5),
    "empirical-profiles-budget-bool": lambda: iso.empirical_profiles(
        _interval(), [0.5], candidate_budget=True),
    "levy-gromov-budget-fraction": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [0.5], candidate_budget=4.5),
    # on trivial volumes alone no profile read the budget
    "empirical-profiles-budget-fraction-trivial-volumes": lambda: iso.empirical_profiles(
        _interval(), [0.0, 1.0], candidate_budget=2.5),
    "levy-gromov-budget-zero-trivial-volumes": lambda: iso.levy_gromov_check(
        _interval(), iso.ModelProfileSpec(0.0, 2.0, 1.0), [0.0, 1.0], candidate_budget=0),
    "interval-model-n-fraction": lambda: ms.generate_interval_model(0.0, 2.0, 1.0, 64.5),
    "sphere-sample-n-fraction": lambda: ms.generate_sphere_sample(2, 150.5),
    # a length other than n leaked numpy's broadcasting ValueError, and a
    # missing or out-of-range ray subset a TypeError or IndexError
    "consistency-test-sets-without-ray-subsets": lambda: di.check_consistency(
        _disintegration(), test_sets=[np.ones(64, bool)]),
    "consistency-ray-index-high": _consistency_past_the_rays,
    "consistency-test-set-length": lambda: di.check_consistency(
        _disintegration(), test_sets=[np.ones(63, bool)], ray_subsets=[[0]]),
    "disintegrate-measure-length": lambda: di.disintegrate(*_rays(), np.full(63, 1 / 63)),
    "balance-f-length": lambda: di.check_balance(*_rays(), np.zeros(63)),
    # a negative or NaN measure listed every ray as zero-mass, and a NaN f
    # gave NaN per-ray values (an infinite one a NotMeanZero)
    "disintegrate-measure-negative": lambda: di.disintegrate(*_rays(), np.full(64, -1 / 64)),
    "disintegrate-measure-nan": lambda: di.disintegrate(*_rays(),
                                                        np.r_[np.full(63, 1 / 63), np.nan]),
    "balance-f-nan": lambda: di.check_balance(*_rays(), np.r_[np.zeros(63), np.nan]),
    "balance-f-inf": lambda: di.check_balance(*_rays(), np.r_[np.zeros(63), np.inf]),
    "minkowski-indicator-length": lambda: iso.minkowski_content(
        _interval(), np.ones(63, bool), [0.2]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_of_range_parameter_is_bad_parameter(case):
    with pytest.raises(BadParameter) as info:
        CASES[case]()
    assert isinstance(info.value, ValueError)


def test_bad_volume_is_a_bad_parameter():
    assert issubclass(BadVolume, BadParameter) and issubclass(BadVolume, ValueError)


@pytest.mark.parametrize("n, edges", [
    (3, [[0, 1, 1.0], [1, 2, 1.0], [0, 2, np.nan]]), (2, [[0, 1, np.nan]]),
    (2, [[0, 1, np.inf]]), (2, [[0, 5, 1.0]]), (2, [[1, -1, 1.0]]),
    (3, [[0, 1.7, 1.0], [1, 2, 1.0]])],
    ids=["nan-chord", "nan", "inf", "endpoint-high", "endpoint-negative", "endpoint-fractional"])
def test_bad_graph_edge_is_a_metric_violation(n, edges):
    # a NaN chord was dropped and a NaN or inf edge read as disconnected;
    # an endpoint out of range raised scipy's bare ValueError, and a
    # fractional one was truncated to an integer
    with pytest.raises(MetricViolation, match=r"^edge \("):
        ms.build_space(list(range(n)), {"type": "graph", "edges": edges})


def test_fractional_endpoint_in_a_spec_without_points_is_a_metric_violation():
    # the space was sized from the truncated endpoints, then built from them
    with pytest.raises(MetricViolation, match=r"^edge \(0, 1\.7, 1\): endpoints must be integers"):
        ms.from_spec({"metric": {"type": "graph", "edges": [[0, 1.7, 1.0], [1, 2, 1.0]]}})


@pytest.mark.parametrize("D", [np.nan, np.inf, -np.inf])
def test_nonfinite_interval_diameter_is_a_bad_diameter(D):
    # D <= 0 let NaN and inf through to the grid, with numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadDiameter, match="D must be finite and positive"):
            ms.generate_interval_model(0.0, 2.0, D, 64)


@pytest.mark.parametrize("change, name", [
    (lambda sol, n: (np.r_[sol.pairs, [[0, n]]], np.r_[sol.masses, 0.0], sol.potential), "pairs"),
    (lambda sol, n: (sol.pairs, sol.masses[:-1], sol.potential), "masses"),
    (lambda sol, n: (sol.pairs, np.r_[sol.masses[:-1], np.inf], sol.potential), "masses"),
    (lambda sol, n: (sol.pairs, sol.masses, sol.potential[:-1]), "potential")],
    ids=["pair-out-of-range", "masses-length", "masses-inf", "potential-length"])
def test_malformed_certificate_names_the_argument(change, name):
    # an IndexError from the marginal check, or numpy's ValueError from matmul
    # or broadcasting, before the certificate was read
    space, sol = _solved()
    with pytest.raises(BadParameter, match=f"^{name} "):
        w1.from_certificate(space, sol.mu0, sol.mu1, *change(sol, space.n))
