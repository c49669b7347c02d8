"""Independent W1 oracle for the tests: integer successive shortest paths.

Pure Python and exact in integer arithmetic, so it shares nothing with the
library's engines but the mass quantizer; fit for small instances only.
"""

import heapq

import numpy as np
from needlekit.errors import SolverFailure
from needlekit.w1solve import MASS_SCALE, quantize_masses

COST_SCALE = 10**12


def ssp_plan(D, mu0, mu1):
    """Optimal plan of the net supplies mu0 - mu1 on distance matrix D, as
    (pairs, masses) in point indices; its cost is sum(masses * D[pairs])."""
    b = np.asarray(mu0, dtype=float) - np.asarray(mu1, dtype=float)
    src = np.where(b > 0)[0]
    snk = np.where(b < 0)[0]
    pairs, masses = _ssp(np.ascontiguousarray(D[np.ix_(src, snk)]), b[src], -b[snk])
    return np.stack([src[pairs[:, 0]], snk[pairs[:, 1]]], axis=1), masses


def ssp_cost(D, mu0, mu1):
    pairs, masses = ssp_plan(D, mu0, mu1)
    return float((masses * D[pairs[:, 0], pairs[:, 1]]).sum())


def _ssp(D_sub, a, b):
    """Integer successive shortest paths with node potentials (oracle grade).

    Costs are quantized to 64-bit integers at COST_SCALE; supplies at
    MASS_SCALE. Exact in integer arithmetic; intended for small instances.
    Returns (pairs, masses) on the bipartite index sets.
    """
    S, T = D_sub.shape
    cost = np.round(D_sub * COST_SCALE).astype(np.int64)
    ua, ub = (quantize_masses(m * MASS_SCALE, int(round(m.sum() * MASS_SCALE))) for m in (a, b))
    if ua.sum() != ub.sum():
        raise SolverFailure("quantized supplies do not balance")
    m = S + T
    pot = [0] * m
    supply = [int(x) for x in ua]
    demand = [int(x) for x in ub]
    flow: dict[tuple[int, int], int] = {}
    remaining = sum(supply)
    INF = float("inf")
    while remaining > 0:
        dist = [INF] * m
        prev = [-1] * m
        heap = []
        for i in range(S):
            if supply[i] > 0:
                dist[i] = 0
                heapq.heappush(heap, (0, i))
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            if x < S:
                for j in range(T):
                    rc = cost[x, j] + pot[x] - pot[S + j]
                    nd = d + rc
                    if nd < dist[S + j]:
                        dist[S + j] = nd
                        prev[S + j] = x
                        heapq.heappush(heap, (nd, S + j))
            else:
                j = x - S
                for (i, jj), f in flow.items():
                    if jj == j and f > 0:
                        rc = -cost[i, j] + pot[x] - pot[i]
                        nd = d + rc
                        if nd < dist[i]:
                            dist[i] = nd
                            prev[i] = x
                            heapq.heappush(heap, (nd, i))
        best, bd = -1, INF
        for j in range(T):
            if demand[j] > 0 and dist[S + j] < bd:
                bd = dist[S + j]
                best = S + j
        if best < 0:
            raise SolverFailure("SSP: no augmenting path (infeasible input)")
        path = []
        x = best
        while prev[x] != -1:
            path.append((prev[x], x))
            x = prev[x]
        src = x
        amount = min(supply[src], demand[best - S])
        for y, z in path:
            if y < S:
                pass
            else:
                amount = min(amount, flow[(z, y - S)])
        for y, z in path:
            if y < S:
                flow[(y, z - S)] = flow.get((y, z - S), 0) + amount
            else:
                flow[(z, y - S)] -= amount
        supply[src] -= amount
        demand[best - S] -= amount
        remaining -= amount
        for x in range(m):
            if dist[x] < INF:
                pot[x] += min(dist[x], bd)
            else:
                pot[x] += bd
    pairs, masses = [], []
    for (i, j), f in flow.items():
        if f > 0:
            pairs.append((i, j))
            masses.append(f / MASS_SCALE)
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    return pairs, np.array(masses)

