"""Digest of every pipeline output on the benchmark ladder, one JSON line per job.

    PYTHONPATH=src python tests/ladder_digest.py [workload ...]

Runs `solve_w1` and `decompose` on each pipeline job of the workloads
(default: caps, needles_1d and lp_mixed, from `perfbench/workloads.py`,
which is imported and not changed). Arrays are printed as the sha256 of
their bytes with dtype and shape; scalars and the tightening and colgen
records as plain values. Two trees compute the same outputs on the ladder
exactly when they print the same lines, so a claim of bit identity can be
checked by running this at both and comparing.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402
from needlekit import monge1d, w1solve  # noqa: E402


def _array(a) -> str:
    a = np.ascontiguousarray(a)
    return f"{hashlib.sha256(a.tobytes()).hexdigest()} {a.dtype} {a.shape}"


def digest(space, mu0, mu1) -> dict:
    """The outputs of `solve_w1` and `decompose` on one instance, hashed."""
    sol = w1solve.solve_w1(space, mu0, mu1)
    needles = monge1d.decompose(space, sol)
    gamma, st, dec, cp = needles.gamma, needles.structure, needles.rays, needles.coupling
    stored = {"gamma_runs": gamma.runs} if gamma.runs is not None else {
        "gamma_fwd": gamma.fwd, "gamma_bwd": gamma.bwd}
    arrays = {"plan_pairs": sol.pairs, "plan_masses": sol.masses, "phi": sol.potential,
              **stored, "A+": st.branching_fwd, "A-": st.branching_bwd, "T": st.transport_set,
              "ray_of": dec.ray_of, "param": dec.param, "orphans": dec.orphan_points,
              "coupling_pairs": cp.pairs, "coupling_masses": cp.masses}
    return {"engine": sol.engine, **{k: _array(v) for k, v in arrays.items()},
            "gamma_tol": gamma.tol, "slack_floor": sol.slack_floor,
            "support_residual": sol.support_residual, "rays": len(dec.rays),
            "tightening": sol.tightening, "colgen": sol.colgen}


def dumps(record: dict) -> str:
    """One JSON line; numpy scalars in the records become plain numbers."""
    return json.dumps(record, default=lambda x: x.item())


def main(names) -> None:
    for name in names:
        for job in workloads.build(name, 0):
            if job.kind == "pipeline":
                print(dumps({"workload": name, "job": job.name,
                             **digest(job.space, job.mu0, job.mu1)}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or workloads.WORKLOADS)
