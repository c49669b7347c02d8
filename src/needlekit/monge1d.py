"""Monge solution: per-ray monotone rearrangement glued through the ray map.

Atomic inputs force couplings rather than maps; the sweep splits source
atoms across targets when mass dictates and flags `is_map` accordingly.
Mass arithmetic runs on 64-bit integers at the plan's quantum
(`w1solve.MASS_SCALE` units per unit of mass, exact remainder tracking)
so that marginals balance exactly and the sweep terminates cleanly.

Target conditioning follows the plan pushforward: the mass a ray receives
is what the optimal plan sends from that ray. Plan pairs whose target
falls off the source ray (branch points, orphans) and diagonal pairs are
passed through unchanged; mass off the transport set is coupled by the
identity. The assembled coupling therefore has the plan's marginals
exactly, and its cost matches the Kantorovich optimum whenever every ray
receives its own mass. Conditioning and assembly work on arrays of plan
pairs: one stable sort orders the moving pairs by ray and parameter, each
ray is quantized to its own integer units, and one sweep couples them all.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import rays as ry
from . import w1solve as w1
from .errors import MassMismatch
from .disint import Disintegration
from .mmspace import MMSpace
from .rays import RayDecomposition, TransportStructure
from .w1solve import MASS_SCALE, GammaSet, W1Solution, _quantile_pairs, _to_units


@dataclasses.dataclass
class MonotoneMap1D:
    source_pos: np.ndarray
    source_units: np.ndarray
    target_pos: np.ndarray
    target_units: np.ndarray
    assignment: np.ndarray   # (k, 3) int64 rows: source idx, target idx, integer mass
    cost: float
    is_map: bool


def _sorted_atoms(atoms):
    atoms = np.asarray(atoms, dtype=float).reshape(-1, 2)
    order = np.argsort(atoms[:, 0], kind="stable")
    return atoms[order, 0], atoms[order, 1]


def _running_sum(x: np.ndarray) -> float:
    """Left-to-right sum (not numpy's pairwise one); 0.0 when empty."""
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _couple(spos, smass, s_edges, tpos, tmass, t_edges):
    """Quantile couplings of consecutive atom groups, all in one sweep.

    Group q is sources s_edges[q]:s_edges[q+1] and targets
    t_edges[q]:t_edges[q+1], each sorted by position, with equal positive
    totals. Each group is quantized on one total (`w1solve._to_units`), so
    source and target partial sums meet at every group boundary and no
    piece of the sweep crosses one. Returns the integer units, the (k, 3)
    rows (source, target, units) in group order, and each group's cost.
    """
    su = np.zeros(len(smass), np.int64)
    tu = np.zeros(len(tmass), np.int64)
    for q in range(len(s_edges) - 1):
        s = slice(s_edges[q], s_edges[q + 1])
        t = slice(t_edges[q], t_edges[q + 1])
        su[s], tu[t] = _to_units(smass[s], tmass[t])
    rows = _quantile_pairs(su, tu)
    i, j, m = rows.T
    terms = m * np.abs(spos[i] - tpos[j])
    cut = np.searchsorted(i, s_edges)
    costs = np.array([_running_sum(terms[lo:hi]) for lo, hi in zip(cut[:-1], cut[1:])])
    return su, tu, rows, costs / MASS_SCALE


def monotone_rearrangement(source_atoms, target_atoms) -> MonotoneMap1D:
    """Quantile coupling of two atom lists: sweep both in position order.

    `source_atoms`, `target_atoms`: sequences of finite (position, mass)
    with equal totals (1e-10) of at most 2**53 / MASS_SCALE (about 90).
    The coupling never crosses: i < i' coupled to j, j' implies j <= j'.
    """
    spos, smass = _sorted_atoms(source_atoms)
    tpos, tmass = _sorted_atoms(target_atoms)
    if not np.isfinite(np.concatenate([spos, smass, tpos, tmass])).all():
        raise MassMismatch("atom positions and masses must be finite")
    if np.any(smass < 0) or np.any(tmass < 0):
        raise MassMismatch("negative atom mass")
    s_total, t_total = smass.sum(), tmass.sum()
    if abs(s_total - t_total) > 1e-10 * max(1.0, s_total):
        raise MassMismatch(f"total masses differ: {s_total} vs {t_total}")
    if s_total * MASS_SCALE > 2**53:     # float unit counts stop being exact integers
        raise MassMismatch(f"total mass {s_total} above {2**53 / MASS_SCALE:g}")
    if s_total <= 0:
        return MonotoneMap1D(spos, np.zeros(0, np.int64), tpos,
                             np.zeros(0, np.int64), np.zeros((0, 3), np.int64), 0.0, True)
    su, tu, assignment, (cost,) = _couple(spos, smass, [0, len(smass)],
                                          tpos, tmass, [0, len(tmass)])
    is_map = bool((np.bincount(assignment[:, 0], minlength=len(su)) <= 1).all())
    return MonotoneMap1D(spos, su, tpos, tu, assignment, float(cost), is_map)


@dataclasses.dataclass
class PlanConditioning:
    """Positive-mass plan pairs split by the ray map, as record arrays.

    `moving` (fields ray, i, j, mass) holds the pairs i != j with both ends
    on one ray: the sources are that ray's moving atoms and the targets its
    conditioned ones. `passthrough` (fields i, j, mass) holds every other
    pair. Both keep plan order.
    """

    moving: np.ndarray
    passthrough: np.ndarray


def condition_target_via_plan(decomposition: RayDecomposition,
                              solution: W1Solution, n: int) -> PlanConditioning:
    """Condition mu1 on source rays through the plan (pushforward step).

    A plan pair contributes moving atoms to its source's ray exactly when
    both endpoints lie on that ray; diagonal pairs and pairs leaving the
    ray are passed through verbatim (identity extension / defect report).
    `n` is not read: it stays in the signature for callers that pass it.
    """
    ray_of = decomposition.ray_of
    pairs = np.asarray(solution.pairs, dtype=np.int64).reshape(-1, 2)
    masses = np.asarray(solution.masses, dtype=float)
    i, j = pairs[:, 0], pairs[:, 1]
    live = masses > 0
    on_ray = live & (i != j) & (ray_of[i] >= 0) & (ray_of[i] == ray_of[j])
    k = np.flatnonzero(on_ray)
    p = np.flatnonzero(live & ~on_ray)
    return PlanConditioning(
        np.rec.fromarrays([ray_of[i[k]], i[k], j[k], masses[k]], names="ray,i,j,mass"),
        np.rec.fromarrays([i[p], j[p], masses[p]], names="i,j,mass"))


@dataclasses.dataclass
class MongeCoupling:
    pairs: np.ndarray
    masses: np.ndarray
    cost: float
    is_map: bool
    per_ray_costs: np.ndarray
    passthrough_cost: float
    passthrough_mass: float

    def to_json(self) -> dict:
        return {
            "coupling": [
                {"from": int(i), "to": int(j), "mass": float(m)}
                for (i, j), m in zip(self.pairs, self.masses)
            ],
            "cost": self.cost,
            "is_map": self.is_map,
            "per_ray_costs": self.per_ray_costs.tolist(),
        }


def assemble_monge_map(space: MMSpace, decomposition: RayDecomposition,
                       disint0: Disintegration | None,
                       cond: PlanConditioning) -> MongeCoupling:
    """Glue per-ray monotone rearrangements into a global coupling.

    On each ray, the moving sources and targets are ordered by arclength
    parameter (stably, so plan order breaks ties), quantized to the ray's
    own integer units and coupled by the quantile sweep; one sweep serves
    every ray. The passthrough pairs follow, verbatim, so the marginals
    balance exactly by construction of `cond`. `disint0` is not read: it
    stays in the signature for callers that pass a Disintegration of mu0.
    `is_map` holds when no source has two distinct targets.
    """
    param = decomposition.param
    mv = cond.moving
    # lexsort is stable: by ray, then by parameter, then in plan order
    s_order = np.lexsort((param[mv["i"]], mv["ray"]))
    t_order = np.lexsort((param[mv["j"]], mv["ray"]))
    s_pts, t_pts = mv["i"][s_order], mv["j"][t_order]
    hit, edges = np.unique(mv["ray"][s_order], return_index=True)
    edges = np.append(edges, len(mv))
    _, _, rows, costs = _couple(param[s_pts], mv["mass"][s_order], edges,
                                param[t_pts], mv["mass"][t_order], edges)
    per_ray_costs = np.zeros(len(decomposition.rays))
    per_ray_costs[hit] = costs
    pt = cond.passthrough
    pairs = np.concatenate([np.stack([s_pts[rows[:, 0]], t_pts[rows[:, 1]]], axis=1),
                            np.stack([pt["i"], pt["j"]], axis=1)])
    masses = np.concatenate([rows[:, 2] / MASS_SCALE, pt["mass"]])
    cost = float((masses * space.dist(pairs[:, 0], pairs[:, 1])).sum()) if len(masses) else 0.0
    pcost = _running_sum(pt["mass"] * space.dist(pt["i"], pt["j"]))
    pmass = _running_sum(np.where(pt["i"] != pt["j"], pt["mass"], 0.0))
    keys = np.sort(pairs[:, 0] * space.n + pairs[:, 1], kind="stable")   # by source, then target
    is_map = bool(((np.diff(keys) == 0) | (np.diff(keys // space.n) > 0)).all())
    return MongeCoupling(pairs, masses, cost, is_map, per_ray_costs, pcost, pmass)


@dataclasses.dataclass
class Needles:
    """The needle decomposition of one W1 solution, stage by stage."""

    solution: W1Solution
    gamma: GammaSet
    structure: TransportStructure
    rays: RayDecomposition
    coupling: MongeCoupling


def decompose(space: MMSpace, solution: W1Solution, tol: float | None = None) -> Needles:
    """Gamma -> transport structure -> rays -> plan conditioning -> Monge coupling.

    `tol` is the Gamma tolerance (None: the `w1solve.gamma_tol` policy).
    Each stage is called through its module attribute, so a wrapper
    installed on one (a profiler, a test double) sees this call too.
    """
    gamma = w1.gamma_set(space, solution, tol=tol)
    structure = ry.build_transport_structure(space, gamma)
    rays = ry.partition_rays(space, structure, solution)
    cond = condition_target_via_plan(rays, solution, space.n)
    coupling = assemble_monge_map(space, rays, None, cond)
    return Needles(solution, gamma, structure, rays, coupling)
