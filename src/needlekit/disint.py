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

from .errors import BadParameter, NotMeanZero
from .mmspace import MMSpace, _vector
from .rays import RayDecomposition


@dataclasses.dataclass
class Disintegration:
    quotient_weights: np.ndarray        # q-mass per ray
    conditionals: list[np.ndarray]      # per ray, aligned with ray.points; sums to 1
    residual_mass: float                # measure of X minus the rays
    zero_mass_rays: np.ndarray          # indices of rays with zero measure
    measure: np.ndarray
    decomposition: RayDecomposition


def _ray_sums(decomposition: RayDecomposition, values: np.ndarray) -> np.ndarray:
    """Float sum of `values` over each ray's points, from the ray map."""
    on = decomposition.ray_of >= 0
    sums = np.bincount(decomposition.ray_of[on], values[on], minlength=len(decomposition.rays))
    return sums.astype(float, copy=False)     # bincount gives int64 when there are no rays


def disintegrate(space: MMSpace, decomposition: RayDecomposition,
                 measure) -> Disintegration:
    """Conditional = measure restricted to each ray, renormalized."""
    measure = _vector(measure, space.n, "measure")
    if (bad := np.flatnonzero(~((measure >= 0) & (measure < np.inf)))).size:     # NaN too
        raise BadParameter(
            f"measure must be finite and >= 0, got {measure[bad[0]]} at point {bad[0]}")
    weights = _ray_sums(decomposition, measure)
    conds = [measure[ray.points] / w if w > 0 else np.zeros(0)
             for ray, w in zip(decomposition.rays, weights)]
    residual = float(measure.sum() - weights.sum())
    return Disintegration(weights, conds, residual, np.flatnonzero(~(weights > 0)),
                          measure.copy(), decomposition)


def check_consistency(disint: Disintegration, n_pairs: int = 100,
                      rng=None, test_sets=None, ray_subsets=None) -> dict:
    """Exact check of m(B n Q^{-1}(C)) = sum_{q in C} q(q) m_q(B).

    Explicit point sets B (`test_sets`, boolean masks of length n) and
    ray-index sets C (`ray_subsets`, one per set, each index below the
    number of rays) can be supplied; otherwise random ones are drawn, plus
    the trivial pairs (whole space, all rays) and (empty set, all rays).
    The right side reads each point's q(q) m_q(x) off the ray map, so both
    sides are sums over B n Q^{-1}(C); max absolute discrepancy returned.
    """
    rng = rng or np.random.default_rng(0)
    n = len(disint.measure)
    dec = disint.decomposition
    nrays = len(dec.rays)
    density = np.zeros(n)        # q(q) m_q(x) at each point x of ray q
    for w, cond, ray in zip(disint.quotient_weights, disint.conditionals, dec.rays):
        if len(cond):
            density[ray.points] = w * cond

    def both_sides(B_mask, C_idx):
        in_c = np.zeros(nrays + 1, dtype=bool)     # slot -1: off the rays
        in_c[C_idx] = True
        mask = B_mask & in_c[dec.ray_of]
        return disint.measure[mask].sum(), density[mask].sum()

    if test_sets is not None:
        if ray_subsets is None or len(ray_subsets) != len(test_sets):
            raise BadParameter("test_sets needs ray_subsets, one ray-index set per point set")
        subsets = [np.asarray(c, dtype=int) for c in ray_subsets]
        if any(((c < 0) | (c >= nrays)).any() for c in subsets):
            raise BadParameter(f"ray_subsets must index the rays 0..{nrays - 1}")
        cases = list(zip([_vector(b, n, "test set", bool) for b in test_sets], subsets))
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
    f = _vector(f, space.n, "f")
    if (bad := np.flatnonzero(~np.isfinite(f))).size:
        raise BadParameter(f"f must be finite, got {f[bad[0]]} at point {bad[0]}")
    total = float(f @ space.weights)
    if abs(total) > 1e-10:
        raise NotMeanZero(f"global integral of f is {total}")
    q = _ray_sums(decomposition, space.weights)
    fm = _ray_sums(decomposition, f * space.weights)
    per_ray = np.divide(fm, q, out=np.zeros_like(fm), where=q > 0)
    return {
        "per_ray": per_ray,
        "max_abs": float(np.abs(per_ray).max(initial=0.0)),
        "weighted_mean": float((np.abs(per_ray) * q).sum() / max(q.sum(), 1e-300)),
        "n_rays": len(per_ray),
    }
