"""Workload inputs and jobs.

Each workload is a list of jobs. A pipeline job runs marginals ->
certified Monge coupling; a check job asks for one CD, MCP or
Levy-Gromov verdict whose correct answer is known. The library only ever
sees the finished inputs.

The pipeline instances form a fixed ladder, drawn once from LADDER_SEED.
Solve time depends strongly on the draw (the tightening ladder, HiGHS
pivoting, arc generation rounds, the point at which a failing solve
gives up), so per-seed instances would make runs disagree by far more
than the changes the benchmark has to show. The run's seed draws the
check samples: the CD triples, the MCP quadruples and the Levy-Gromov
candidate sets.

Library functions are always looked up on their module at call time, so
the span recorder in `spans.py` sees every call.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
from needlekit import curvature, disint, isoperim, mmspace, monge1d, rays, w1solve

WORKLOADS = ("caps", "needles_1d", "lp_mixed")

# Checks are on the (K=1, N=2, D=pi) interval model: the sphere's needle
# density sin(t), for which CD(1,2), MCP(1,2) and Levy-Gromov all hold.
MODEL = (1.0, 2.0, np.pi)
LADDER_SEED = 0
V_GRID = (0.25, 0.5, 0.75)
CHECK_SAMPLES = 200_000


@dataclasses.dataclass
class PipelineJob:
    name: str
    space: mmspace.MMSpace
    mu0: np.ndarray
    mu1: np.ndarray
    kind = "pipeline"


@dataclasses.dataclass
class CheckJob:
    name: str
    verdict: Callable[[], bool]   # runs the check, True when it passes
    expect: bool
    kind = "check"


@dataclasses.dataclass
class PipelineOutput:
    solution: w1solve.W1Solution
    structure: rays.TransportStructure
    decomposition: rays.RayDecomposition
    coupling: monge1d.MongeCoupling


def gamma_tol(space, sol) -> float:
    """The Gamma tolerance `needlekit decompose` uses (cli._decompose_pipeline)."""
    tol = w1solve.DEFAULT_GAMMA_TOL_FACTOR * max(space.max_distance, 1.0)
    if sol.slack_floor > 0:
        tol = min(tol, sol.slack_floor / 4)
    return tol


def run_pipeline(job: PipelineJob) -> PipelineOutput:
    space = job.space
    sol = w1solve.solve_w1(space, job.mu0, job.mu1)
    gamma = w1solve.gamma_set(space, sol, tol=gamma_tol(space, sol))
    structure = rays.build_transport_structure(space, gamma)
    dec = rays.partition_rays(space, structure, sol)
    d0 = disint.disintegrate(space, dec, sol.mu0)
    cond = monge1d.condition_target_via_plan(dec, sol, space.n)
    coupling = monge1d.assemble_monge_map(space, dec, d0, cond)
    return PipelineOutput(sol, structure, dec, coupling)


def _positive_marginals(n, rng):
    a = rng.random(n) + 1e-3
    b = rng.random(n) + 1e-3
    return a / a.sum(), b / b.sum()


def _polar_caps(space):
    """Uniform, count-balanced masses: top 25% of points by z to the bottom 25%."""
    n, k = space.n, space.n // 4
    order = np.argsort(-space.coords[:, 2], kind="stable")
    mu0 = np.zeros(n)
    mu1 = np.zeros(n)
    mu0[order[:k]] = 1.0 / k
    mu1[order[-k:]] = 1.0 / k
    return mu0, mu1


def _sphere(n, rng):
    return mmspace.generate_sphere_sample(2, n, seed=int(rng.integers(2**31)))


def _cloud(n, rng):
    pts = rng.random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return mmspace.build_space(list(range(n)), {"type": "matrix", "data": D})


def _grid_graph(k, rng):
    edges = []
    for i in range(k):
        for j in range(k):
            v = i * k + j
            if j + 1 < k:
                edges.append([v, v + 1, float(rng.uniform(0.5, 1.5))])
            if i + 1 < k:
                edges.append([v, v + k, float(rng.uniform(0.5, 1.5))])
    return mmspace.build_space(list(range(k * k)), {"type": "graph", "edges": edges})


def _sphere_levy_gromov(space, rng) -> CheckJob:
    """Levy-Gromov on the S^2 sample against its own model (balls only:
    the potential candidates would add a 250k-arc LP solve per volume)."""
    seed = int(rng.integers(2**31))

    def verdict():
        rep = isoperim.levy_gromov_check(space, isoperim.ModelProfileSpec(*MODEL), V_GRID,
                                         rng=np.random.default_rng(seed),
                                         include_potential=False)
        return rep["verdict"] == "pass"

    return CheckJob(f"levy-gromov-S2-n{space.n}", verdict, expect=True)


def _curvature_checks(rng, samples=20_000) -> list:
    """Small CD and MCP checks that must pass: CD(0,2) on the flat model
    (equality case) and MCP(1,2) on the (1,2,pi) model. They keep every
    layer in the trace of a workload without needle checks."""
    flat = mmspace.model_density(0.0, 2.0, 1.0, 2000)
    model = mmspace.model_density(*MODEL, 2000)
    s_cd, s_mcp = (int(s) for s in rng.integers(2**31, size=2))

    def cd():
        triples = curvature.sample_triples(flat.grid, samples, np.random.default_rng(s_cd))
        return curvature.cd_density_check(flat, 0.0, 2.0, triples).verdict

    def mcp():
        quads = curvature.sample_quadruples(model.grid, samples, np.random.default_rng(s_mcp))
        return curvature.mcp_density_check(model, 1.0, 2.0, quads).verdict

    return [CheckJob("cd-flat-K0", cd, expect=True), CheckJob("mcp-model-small", mcp, expect=True)]


def _caps(ladder, rng):
    jobs = []
    for n in (1000, 2000):
        space = _sphere(n, ladder)
        jobs.append(PipelineJob(f"caps-n{n}", space, *_polar_caps(space)))
    jobs.append(_sphere_levy_gromov(jobs[0].space, rng))
    return jobs + _curvature_checks(rng)


def _needles_1d(ladder, rng):
    jobs = []
    for K, N, D in ((0.0, 2.0, 1.0), MODEL):
        space, _ = mmspace.generate_interval_model(K, N, D, 4000)
        jobs.append(PipelineJob(f"interval-K{K:g}-n4000", space,
                                *_positive_marginals(space.n, ladder)))
    space, dens = mmspace.generate_interval_model(*MODEL, 2000)
    flat = mmspace.model_density(0.0, 2.0, 1.0, 2000)
    s_cd, s_mcp, s_lg, s_flat = (int(s) for s in rng.integers(2**31, size=4))
    # sample_triples' extreme triples stop at grid[n-2] when n is even, so
    # the full-domain triple is appended: the model must pass on all of [0, D].
    span = np.array([[dens.grid[0], dens.grid[-1], ((len(dens.grid) - 1) // 2)
                      / (len(dens.grid) - 1)]])

    def cd():
        triples = curvature.sample_triples(dens.grid, CHECK_SAMPLES, np.random.default_rng(s_cd))
        return curvature.cd_density_check(dens, 1.0, 2.0, np.vstack([triples, span])).verdict

    def mcp():
        quads = curvature.sample_quadruples(dens.grid, CHECK_SAMPLES, np.random.default_rng(s_mcp))
        return curvature.mcp_density_check(dens, 1.0, 2.0, quads).verdict

    def levy_gromov():
        rep = isoperim.levy_gromov_check(space, isoperim.ModelProfileSpec(*MODEL), V_GRID,
                                         rng=np.random.default_rng(s_lg))
        return rep["verdict"] == "pass"

    def flat_cd():
        triples = curvature.sample_triples(flat.grid, CHECK_SAMPLES, np.random.default_rng(s_flat))
        return curvature.cd_density_check(flat, 1.0, 2.0, triples).verdict

    jobs += [CheckJob("cd-model", cd, expect=True),
             CheckJob("mcp-model", mcp, expect=True),
             CheckJob("levy-gromov-model", levy_gromov, expect=True),
             CheckJob("cd-flat-control", flat_cd, expect=False)]
    return jobs


def _lp_mixed(ladder, rng):
    jobs = []
    for n in (800, 1200):
        space = _cloud(n, ladder)
        jobs.append(PipelineJob(f"cloud-n{n}", space, *_positive_marginals(n, ladder)))
    space = _grid_graph(30, ladder)
    jobs.append(PipelineJob("grid-30x30", space, *_positive_marginals(space.n, ladder)))
    space = _sphere(1000, ladder)
    mu0, mu1 = _polar_caps(space)
    mu0 = mu0 * (1 + 1e-6 * ladder.uniform(-1, 1, space.n))
    mu1 = mu1 * (1 + 1e-6 * ladder.uniform(-1, 1, space.n))
    jobs.append(PipelineJob("cap-perturbed-n1000", space, mu0 / mu0.sum(), mu1 / mu1.sum()))
    jobs.append(_sphere_levy_gromov(space, rng))
    return jobs + _curvature_checks(rng)


def build(name: str, seed: int) -> list:
    """The jobs of workload `name`; the same seed gives the same inputs."""
    make = {"caps": _caps, "needles_1d": _needles_1d, "lp_mixed": _lp_mixed}[name]
    return make(np.random.default_rng(LADDER_SEED), np.random.default_rng(seed))
