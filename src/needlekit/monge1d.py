"""Monge solution: per-ray monotone rearrangement glued through the ray map.

Atomic inputs force couplings rather than maps; the sweep splits source
atoms across targets when mass dictates and flags `is_map` accordingly.
Mass arithmetic runs on 64-bit integers (1e-12 granularity, exact
remainder tracking) so that marginals balance exactly and the sweep
terminates cleanly.

Target conditioning follows the plan pushforward: the mass a ray receives
is what the optimal plan sends from that ray. Plan pairs whose target
falls off the source ray (branch points, orphans) and diagonal pairs are
passed through unchanged; mass off the transport set is coupled by the
identity. The assembled coupling therefore has the plan's marginals
exactly, and its cost matches the Kantorovich optimum whenever every ray
receives its own mass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import rays as ry
from . import w1solve as w1
from .errors import MassMismatch, RayMarginalMismatch
from .disint import Disintegration
from .mmspace import MMSpace
from .rays import RayDecomposition, TransportStructure
from .w1solve import GammaSet, W1Solution, _quantile_pairs, quantize_masses

ATOM_SCALE = 10**12
_MASS_TOL = 1e-9


@dataclasses.dataclass
class MonotoneMap1D:
    source_pos: np.ndarray
    source_units: np.ndarray
    target_pos: np.ndarray
    target_units: np.ndarray
    assignment: list[tuple[int, int, int]]   # (source idx, target idx, integer mass)
    cost: float
    is_map: bool


def _sorted_atoms(atoms):
    atoms = np.asarray(atoms, dtype=float).reshape(-1, 2)
    order = np.argsort(atoms[:, 0], kind="stable")
    return atoms[order, 0], atoms[order, 1]


def monotone_rearrangement(source_atoms, target_atoms) -> MonotoneMap1D:
    """Quantile coupling of two atom lists: sweep both in position order.

    `source_atoms`, `target_atoms`: sequences of (position, mass) with
    equal totals (1e-10). The coupling never crosses: i < i' coupled to
    j, j' implies j <= j'.
    """
    spos, smass = _sorted_atoms(source_atoms)
    tpos, tmass = _sorted_atoms(target_atoms)
    if np.any(smass < 0) or np.any(tmass < 0):
        raise MassMismatch("negative atom mass")
    s_total, t_total = smass.sum(), tmass.sum()
    if abs(s_total - t_total) > 1e-10 * max(1.0, s_total):
        raise MassMismatch(f"total masses differ: {s_total} vs {t_total}")
    if s_total <= 0:
        return MonotoneMap1D(spos, np.zeros(0, np.int64), tpos,
                             np.zeros(0, np.int64), [], 0.0, True)
    total_units = int(round(s_total * ATOM_SCALE))
    su = quantize_masses(smass / s_total * total_units, total_units)
    tu = quantize_masses(tmass / t_total * total_units, total_units)
    assignment = _quantile_pairs(su, tu)
    cost = float(sum(m * abs(spos[i] - tpos[j]) for i, j, m in assignment)) / ATOM_SCALE
    splits = np.zeros(len(su), dtype=int)
    for i, _, m in assignment:
        if m > 0:
            splits[i] += 1
    return MonotoneMap1D(spos, su, tpos, tu, assignment, cost, bool((splits <= 1).all()))


@dataclasses.dataclass
class PlanConditioning:
    """Per-ray moving atoms from the plan pushforward, plus passthrough pairs."""

    sources_by_ray: list[list[tuple[int, float]]]
    targets_by_ray: list[list[tuple[int, float]]]
    passthrough: list[tuple[int, int, float]]


def condition_target_via_plan(decomposition: RayDecomposition,
                              solution: W1Solution, n: int) -> PlanConditioning:
    """Condition mu1 on source rays through the plan (pushforward step).

    A plan pair contributes moving atoms to its source's ray exactly when
    both endpoints lie on that ray; diagonal pairs and pairs leaving the
    ray are passed through verbatim (identity extension / defect report).
    """
    ray_of = decomposition.ray_of_point(n)
    nrays = len(decomposition.rays)
    sources = [[] for _ in range(nrays)]
    targets = [[] for _ in range(nrays)]
    passthrough = []
    for (i, j), mass in zip(solution.pairs, solution.masses):
        if mass <= 0:
            continue
        q = ray_of[i]
        if q >= 0 and i != j and ray_of[j] == q:
            sources[q].append((int(i), float(mass)))
            targets[q].append((int(j), float(mass)))
        else:
            passthrough.append((int(i), int(j), float(mass)))
    return PlanConditioning(sources, targets, passthrough)


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


def _param_lookup(ray):
    return {int(p): float(t) for p, t in zip(ray.points, ray.params)}


def assemble_monge_map(space: MMSpace, decomposition: RayDecomposition,
                       disint0: Disintegration | None,
                       disint1: Disintegration | PlanConditioning) -> MongeCoupling:
    """Glue per-ray monotone rearrangements into a global coupling.

    `disint1` is either the plan conditioning (default route, exact
    balance by construction) or a strict Disintegration of mu1 over the
    same rays; in the strict route a per-ray mass imbalance (above 1e-9
    relative to 1 + ray mass) or an off-ray pointwise one (above 1e-9)
    raises RayMarginalMismatch with the defect.
    """
    D = space.D
    out_pairs: list[tuple[int, int]] = []
    out_masses: list[float] = []
    per_ray_costs = np.zeros(len(decomposition.rays))
    source_targets: dict[int, set[int]] = {}

    def emit(i, j, m):
        out_pairs.append((i, j))
        out_masses.append(m)
        source_targets.setdefault(i, set()).add(j)

    if isinstance(disint1, PlanConditioning):
        cond = disint1
        for q, ray in enumerate(decomposition.rays):
            src = cond.sources_by_ray[q]
            tgt = cond.targets_by_ray[q]
            if not src:
                continue
            look = _param_lookup(ray)
            s_atoms = [(look[i], m) for i, m in src]
            t_atoms = [(look[j], m) for j, m in tgt]
            s_pts = [i for i, _ in src]
            t_pts = [j for j, _ in tgt]
            s_order = np.argsort([a[0] for a in s_atoms], kind="stable")
            t_order = np.argsort([a[0] for a in t_atoms], kind="stable")
            mono = monotone_rearrangement([s_atoms[k] for k in s_order],
                                          [t_atoms[k] for k in t_order])
            per_ray_costs[q] = mono.cost
            for ii, jj, m in mono.assignment:
                emit(s_pts[s_order[ii]], t_pts[t_order[jj]], m / ATOM_SCALE)
        pcost = 0.0
        pmass = 0.0
        for i, j, m in cond.passthrough:
            emit(i, j, m)
            pcost += m * D[i, j]
            pmass += m if i != j else 0.0
    else:
        d0, d1 = disint0, disint1
        for q, ray in enumerate(decomposition.rays):
            m0 = d0.quotient_weights[q]
            m1 = d1.quotient_weights[q]
            if abs(m0 - m1) > _MASS_TOL * (1.0 + m0):
                raise RayMarginalMismatch(
                    f"ray {q}: mu0 mass {m0} vs mu1 mass {m1}", defect=abs(m0 - m1))
            if m0 <= 0:
                continue
            s_atoms = list(zip(ray.params, d0.measure[ray.points]))
            t_atoms = list(zip(ray.params, d1.measure[ray.points]))
            mono = monotone_rearrangement(s_atoms, t_atoms)
            per_ray_costs[q] = mono.cost
            for ii, jj, m in mono.assignment:
                emit(int(ray.points[ii]), int(ray.points[jj]), m / ATOM_SCALE)
        # off-ray mass must match pointwise for the identity extension
        on_ray = np.zeros(space.n, dtype=bool)
        for ray in decomposition.rays:
            on_ray[ray.points] = True
        r0 = d0.measure.copy()
        r1 = d1.measure.copy()
        r0[on_ray] = 0.0
        r1[on_ray] = 0.0
        defect = float(np.abs(r0 - r1).max())
        if defect > _MASS_TOL:
            raise RayMarginalMismatch(
                f"off-ray masses differ pointwise by {defect}", defect=defect)
        pcost = 0.0
        pmass = 0.0
        for i in np.where(r0 > 0)[0]:
            emit(int(i), int(i), float(r0[i]))

    pairs = np.array(out_pairs, dtype=int).reshape(-1, 2)
    masses = np.array(out_masses, dtype=float)
    cost = float((masses * D[pairs[:, 0], pairs[:, 1]]).sum()) if len(masses) else 0.0
    is_map = all(len(t) <= 1 for t in source_targets.values())
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
