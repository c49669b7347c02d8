"""The benchmark's calls into the library, on tiny instances.

`perfbench/` is kept unchanged between benchmark revisions, so a library
change that renames or drops a name, option or result field it uses
would otherwise first show in the minutes-long `perfbench/test_perfbench.py`.
These tests import the benchmark's own workload, check and tracing code
and run it at tier-1 size.
"""

import os
import sys

import numpy as np
import pytest

import needlekit

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _jobs():
    rng = np.random.default_rng(0)
    line, _ = needlekit.mmspace.generate_interval_model(*workloads.MODEL, 200)
    cap = workloads._sphere(200, rng)
    cloud = workloads._cloud(60, rng)
    return [workloads.PipelineJob("line", line, *workloads._positive_marginals(line.n, rng)),
            workloads.PipelineJob("cap", cap, *workloads._polar_caps(cap)),
            workloads.PipelineJob("cloud", cloud, *workloads._positive_marginals(cloud.n, rng))]


@pytest.mark.parametrize("job", _jobs(), ids=lambda job: job.name)
def test_pipeline_job_is_correct(job):
    out = workloads.run_pipeline(job)
    assert checks.pipeline_problems(job, out) == []


@pytest.mark.parametrize("job", _jobs(), ids=lambda job: job.name)
def test_benchmark_chain_matches_decompose(job):
    # the benchmark keeps its own copy of the chain, with its own Gamma
    # tolerance; until it calls `decompose`, both must give the same needles
    out = workloads.run_pipeline(job)
    needles = needlekit.decompose(job.space, needlekit.solve_w1(job.space, job.mu0, job.mu1))
    assert out.structure.gamma.tol == needles.gamma.tol
    assert np.array_equal(out.structure.R, needles.structure.R)
    assert len(out.decomposition.rays) == len(needles.rays.rays)
    for theirs, mine in zip(out.decomposition.rays, needles.rays.rays):
        assert np.array_equal(theirs.points, mine.points)
        assert np.array_equal(theirs.params, mine.params)
    assert np.array_equal(out.decomposition.orphan_points, needles.rays.orphan_points)
    assert np.array_equal(out.coupling.pairs, needles.coupling.pairs)
    assert np.array_equal(out.coupling.masses, needles.coupling.masses)


def test_traced_pipeline_fills_counts():
    rec = spans.Recorder()
    undo = rec.install(needlekit)
    try:
        rec.hooks, rec.enabled = layers.HOOKS, True
        for job in _jobs():
            workloads.run_pipeline(job)
    finally:
        rec.enabled = False
        for module, attr, fn in undo:
            setattr(module, attr, fn)
    counts = layers.counts(rec, len(rec.spans))
    assert set(counts) == set(layers.COUNTS)
    assert counts["w1solve.engine.line"] == 1 and counts["w1solve.engine.assignment"] == 1
    assert counts["w1solve.engine.highs-colgen"] == 1 and counts["w1solve.failures"] == 0
    assert counts["rays.rays"] > 0 and counts["monge1d.coupling_pairs"] > 0


def test_check_jobs_run():
    rng = np.random.default_rng(0)
    jobs = workloads._curvature_checks(rng, samples=2000)
    assert [job.verdict() for job in jobs] == [job.expect for job in jobs]
    sphere_lg = workloads._sphere_levy_gromov(workloads._sphere(200, rng), rng)
    assert sphere_lg.verdict() == sphere_lg.expect
