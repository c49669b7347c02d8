"""Loop references for the Monge stage: the quantile sweep as a while-loop,
and plan conditioning plus coupling assembly on tuple lists, one pair at
a time.

They share only the mass quantizer and the atom sort with the library, so
the array versions in `w1solve` and `monge1d` can be checked against them
for byte-equal results.
"""

import numpy as np
from needlekit.monge1d import MongeCoupling, _sorted_atoms
from needlekit.w1solve import MASS_SCALE, quantize_masses


def quantile_pairs(units0, units1):
    """Monotone (quantile) integer coupling of two atom lists sorted by position."""
    out = []
    i = j = 0
    r0 = units0.copy()
    r1 = units1.copy()
    while i < len(r0) and j < len(r1):
        if r0[i] == 0:
            i += 1
            continue
        if r1[j] == 0:
            j += 1
            continue
        m = min(int(r0[i]), int(r1[j]))
        out.append((i, j, m))
        r0[i] -= m
        r1[j] -= m
    return out


def rearrangement(source_atoms, target_atoms):
    """(assignment, cost) of the quantile coupling of two (position, mass) lists."""
    spos, smass = _sorted_atoms(source_atoms)
    tpos, tmass = _sorted_atoms(target_atoms)
    s_total, t_total = smass.sum(), tmass.sum()
    if s_total <= 0:
        return [], 0.0
    total_units = int(round(s_total * MASS_SCALE))
    su = quantize_masses(smass / s_total * total_units, total_units)
    tu = quantize_masses(tmass / t_total * total_units, total_units)
    assignment = quantile_pairs(su, tu)
    cost = float(sum(m * abs(spos[i] - tpos[j]) for i, j, m in assignment)) / MASS_SCALE
    return assignment, cost


def condition_and_assemble(space, decomposition, solution) -> MongeCoupling:
    """Plan-pushforward conditioning and per-ray assembly, pair by pair."""
    ray_of = decomposition.ray_of
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

    D = space.D
    out_pairs, out_masses = [], []
    per_ray_costs = np.zeros(nrays)
    source_targets = {}

    def emit(i, j, m):
        out_pairs.append((i, j))
        out_masses.append(m)
        source_targets.setdefault(i, set()).add(j)

    for q, ray in enumerate(decomposition.rays):
        src, tgt = sources[q], targets[q]
        if not src:
            continue
        look = {int(p): float(t) for p, t in zip(ray.points, ray.params)}
        s_atoms = [(look[i], m) for i, m in src]
        t_atoms = [(look[j], m) for j, m in tgt]
        s_order = np.argsort([a[0] for a in s_atoms], kind="stable")
        t_order = np.argsort([a[0] for a in t_atoms], kind="stable")
        assignment, per_ray_costs[q] = rearrangement([s_atoms[k] for k in s_order],
                                                     [t_atoms[k] for k in t_order])
        for ii, jj, m in assignment:
            emit(src[s_order[ii]][0], tgt[t_order[jj]][0], m / MASS_SCALE)
    pcost = 0.0
    pmass = 0.0
    for i, j, m in passthrough:
        emit(i, j, m)
        pcost += m * D[i, j]
        pmass += m if i != j else 0.0

    pairs = np.array(out_pairs, dtype=int).reshape(-1, 2)
    masses = np.array(out_masses, dtype=float)
    cost = float((masses * D[pairs[:, 0], pairs[:, 1]]).sum()) if len(masses) else 0.0
    is_map = all(len(t) <= 1 for t in source_targets.values())
    return MongeCoupling(pairs, masses, cost, is_map, per_ray_costs, pcost, pmass)
