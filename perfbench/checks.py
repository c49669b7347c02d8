"""Output checks, run after each job and outside its timed window.

A pipeline job's certificate is re-derived from the returned plan and
potential rather than read back; W1 is compared to an independent
reference where one exists (the CDF formula on line spaces, scipy's
assignment solver on uniform count-balanced marginals). Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

GAP_TOL = 1e-9       # relative to 1 + W1, as the library certifies
LIP_TOL = 1e-9       # relative to max(1, diameter)
MARGINAL_TOL = 1e-10
MONGE_TOL = 1e-9     # |Monge cost - W1| relative to 1 + W1
REFERENCE_TOL = 1e-9


def _lipschitz_residual(phi, D, rows=256):
    """max |phi_i - phi_j| - d_ij, in row blocks so the check adds no n^2 array."""
    worst = -np.inf
    for lo in range(0, len(phi), rows):
        block = np.abs(phi[lo:lo + rows, None] - phi[None, :]) - D[lo:lo + rows]
        worst = max(worst, float(block.max()))
    return worst


def _marginal_error(pairs, masses, mu0, mu1):
    n = len(mu0)
    m0 = np.bincount(pairs[:, 0], weights=masses, minlength=n)
    m1 = np.bincount(pairs[:, 1], weights=masses, minlength=n)
    return max(float(np.abs(m0 - mu0).max()), float(np.abs(m1 - mu1).max()))


def reference_w1(space, mu0, mu1):
    """W1 by a method independent of the solver's, or None when none applies."""
    b = mu0 - mu1
    if space.line_coord is not None:
        order = np.argsort(space.line_coord, kind="stable")
        flux = np.cumsum(b[order])[:-1]
        return float(np.abs(flux) @ np.diff(space.line_coord[order]))
    src, snk = np.where(b > 0)[0], np.where(b < 0)[0]
    if len(src) == len(snk) and np.ptp(b[src]) == 0 and np.ptp(b[snk]) == 0:
        sub = space.D[np.ix_(src, snk)]
        rows, cols = linear_sum_assignment(sub)
        return float(sub[rows, cols].sum() * b[src[0]])
    return None


def pipeline_problems(job, out) -> list[str]:
    space, sol, coupling = job.space, out.solution, out.coupling
    D = space.D
    w1 = sol.primal_value
    scale = 1.0 + abs(w1)
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    primal = float(sol.masses @ D[sol.pairs[:, 0], sol.pairs[:, 1]])
    gap = primal - float(sol.potential @ (job.mu0 - job.mu1))
    need(abs(primal - w1) <= 1e-12 * scale, f"plan cost {primal} != reported W1 {w1}")
    need(-1e-10 * scale <= gap <= GAP_TOL * scale, f"duality gap {gap:.3e}")
    need(sol.duality_gap <= GAP_TOL * scale, f"reported gap {sol.duality_gap:.3e}")
    lip_tol = LIP_TOL * max(1.0, float(D.max()))
    lip = _lipschitz_residual(sol.potential, D)
    need(lip <= lip_tol, f"potential not 1-Lipschitz: {lip:.3e}")
    need(sol.lipschitz_residual <= lip_tol,
         f"reported Lipschitz residual {sol.lipschitz_residual:.3e}")
    err = _marginal_error(sol.pairs, sol.masses, job.mu0, job.mu1)
    need(err <= MARGINAL_TOL, f"plan marginal error {err:.3e}")
    need(abs(coupling.cost - w1) <= MONGE_TOL * scale,
         f"Monge cost {coupling.cost} != W1 {w1}")
    err = _marginal_error(coupling.pairs, coupling.masses, job.mu0, job.mu1)
    need(err <= MARGINAL_TOL, f"coupling marginal error {err:.3e}")
    ref = reference_w1(space, job.mu0, job.mu1)
    if ref is not None:
        need(abs(w1 - ref) <= REFERENCE_TOL * scale, f"W1 {w1} != reference {ref}")
    return problems
