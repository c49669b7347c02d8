"""Disintegration of a measure over the ray partition, and its checks.

In the finite setting the disintegration is plain bookkeeping: the
conditional of a measure on a ray is its restriction renormalized, the
quotient weight is the ray mass, and mass off the rays (branch points,
orphans, untouched points) goes to `residual_mass` rather than being
force-assigned anywhere. The consistency identity is exact, and any
failure is a bug, which is what `check_consistency` asserts.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NotMeanZero
from .mmspace import MMSpace
from .rays import RayDecomposition


@dataclasses.dataclass
class Disintegration:
    quotient_weights: np.ndarray        # q-mass per ray
    conditionals: list[np.ndarray]      # per ray, aligned with ray.points; sums to 1
    residual_mass: float                # measure of X minus the rays
    zero_mass_rays: np.ndarray          # indices of rays with zero measure
    measure: np.ndarray
    decomposition: RayDecomposition


def disintegrate(space: MMSpace, decomposition: RayDecomposition,
                 measure) -> Disintegration:
    """Conditional = measure restricted to each ray, renormalized."""
    measure = np.asarray(measure, dtype=float)
    weights = []
    conds = []
    zero = []
    for k, ray in enumerate(decomposition.rays):
        vals = measure[ray.points]
        mass = float(vals.sum())
        weights.append(mass)
        if mass > 0:
            conds.append(vals / mass)
        else:
            conds.append(np.zeros(0))
            zero.append(k)
    weights = np.array(weights)
    residual = float(measure.sum() - weights.sum())
    return Disintegration(weights, conds, residual, np.array(zero, dtype=int),
                          measure.copy(), decomposition)


def check_consistency(disint: Disintegration, n_pairs: int = 100,
                      rng=None, test_sets=None, ray_subsets=None) -> dict:
    """Exact check of m(B n Q^{-1}(C)) = sum_{q in C} q(q) m_q(B).

    Explicit point sets B (`test_sets`, boolean masks) and ray-index sets
    C (`ray_subsets`) can be supplied; otherwise random ones are drawn,
    plus the trivial pairs (whole space, all rays) and (empty set, all
    rays). Both sides are computed by direct summation; max absolute
    discrepancy returned.
    """
    rng = rng or np.random.default_rng(0)
    n = len(disint.measure)
    nrays = len(disint.decomposition.rays)
    ray_points = [ray.points for ray in disint.decomposition.rays]

    def both_sides(B_mask, C_idx):
        lhs = 0.0
        rhs = 0.0
        for q in C_idx:
            pts = ray_points[q]
            lhs += disint.measure[pts[B_mask[pts]]].sum()
            if len(disint.conditionals[q]):
                rhs += disint.quotient_weights[q] * disint.conditionals[q][B_mask[pts]].sum()
        return lhs, rhs

    if test_sets is not None:
        cases = list(zip([np.asarray(b, dtype=bool) for b in test_sets],
                         [np.asarray(c, dtype=int) for c in ray_subsets]))
    else:
        cases = [(np.ones(n, dtype=bool), np.arange(nrays)),
                 (np.zeros(n, dtype=bool), np.arange(nrays))]
        for _ in range(n_pairs):
            B = rng.random(n) < rng.random()
            C = np.where(rng.random(nrays) < rng.random())[0] if nrays else np.arange(0)
            cases.append((B, C))
    worst = 0.0
    for B, C in cases:
        lhs, rhs = both_sides(B, C)
        worst = max(worst, abs(lhs - rhs))
    return {"consistency_max_err": worst, "pairs_tested": len(cases)}


def check_balance(space: MMSpace, decomposition: RayDecomposition, f) -> dict:
    """Per-ray integrals of f against the conditionals of the reference m.

    The decomposition is expected to come from the W1 problem between
    f_+ m and f_- m (normalized); Lemma-style balance then predicts zero
    integrals ray by ray.
    """
    f = np.asarray(f, dtype=float)
    total = float(f @ space.weights)
    if abs(total) > 1e-10:
        raise NotMeanZero(f"global integral of f is {total}")
    dis = disintegrate(space, decomposition, space.weights)
    per_ray = []
    for cond, ray in zip(dis.conditionals, decomposition.rays):
        if len(cond):
            per_ray.append(float(f[ray.points] @ cond))
        else:
            per_ray.append(0.0)
    per_ray = np.array(per_ray)
    if len(per_ray):
        wmean = float((np.abs(per_ray) * dis.quotient_weights).sum()
                      / max(dis.quotient_weights.sum(), 1e-300))
        max_abs = float(np.abs(per_ray).max())
    else:
        wmean = 0.0
        max_abs = 0.0
    return {
        "per_ray": per_ray,
        "max_abs": max_abs,
        "weighted_mean": wmean,
        "n_rays": len(per_ray),
    }
