"""Wasserstein-1 primal/dual solver and the saturated pair set.

The primal is solved exactly per instance class: a quantile sweep for
1D-embeddable metrics, the Jonker-Volgenant assignment solver when net
supplies are uniform and balanced in count, and otherwise the HiGHS
simplex on the bipartite transportation LP by arc generation: restricted
LPs over a growing arc set, priced against all arcs until none outside
the set has negative reduced cost.

Whatever the engine, the dual potential is re-derived: seed values from
the engine are tightened by Bellman-Ford relaxation of the difference
constraints  phi(x) - phi(y) <= d(x,y)  plus saturation equalities on the
plan support, then extended to unmoved points by infimal convolution with
the distance cones. Relaxation runs over a sparse active set of
constraints (support pairs and nearest neighbours), a blocked dense check
adds every violated constraint until none is left, and an attempt fails
only on a proven negative cycle, so which slack margin is accepted
depends on the instance alone, not on the seed or a pass budget. The
result is 1-Lipschitz to machine precision and saturates every support
pair up to the recorded `support_residual` (zero except on
near-degenerate instances whose engine vertex is marginally suboptimal),
so strong duality holds with no solver tolerance in the loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import SolverFailure, TolTooSmall, UnbalancedMarginals
from .mmspace import MMSpace

MASS_SCALE = 10**14
DEFAULT_GAMMA_TOL_FACTOR = 1e-6


@dataclasses.dataclass
class W1Solution:
    """Optimal plan, certified Kantorovich potential, and residuals."""

    pairs: np.ndarray          # (k, 2) int indices, sources then targets
    masses: np.ndarray         # (k,) positive
    primal_value: float
    potential: np.ndarray      # phi, one value per point, min phi = 0
    lipschitz_residual: float
    duality_gap: float
    mu0: np.ndarray
    mu1: np.ndarray
    engine: str = "unknown"
    slack_floor: float = 0.0        # guaranteed saturation slack of non-support pairs
    support_residual: float = 0.0   # measured max saturation slack over plan pairs
    # potential tightening record: equality slack and every relaxation attempt
    # (see _tighten_potential); empty when the engine needs no tightening
    tightening: dict = dataclasses.field(default_factory=dict)
    # arc generation record: LP rounds and the final restricted-LP arc
    # count; empty on the line, identity and assignment routes
    colgen: dict = dataclasses.field(default_factory=dict)

    def plan_triples(self):
        return [(int(i), int(j), float(m)) for (i, j), m in zip(self.pairs, self.masses)]

    def to_json(self) -> dict:
        return {
            "plan": self.plan_triples(),
            "potential": self.potential.tolist(),
            "primal_value": self.primal_value,
            "residuals": {
                "lipschitz": self.lipschitz_residual,
                "duality_gap": self.duality_gap,
            },
            "engine": self.engine,
            "tightening": self.tightening,
            "colgen": self.colgen,
        }


@dataclasses.dataclass
class GammaSet:
    """Pairs moved with maximal slope: phi(x) - phi(y) >= d(x,y) - tol."""

    mask: np.ndarray           # (n, n) bool, diagonal included
    tol: float

    def contains(self, i: int, j: int) -> bool:
        return bool(self.mask[i, j])

    def pairs(self, include_diagonal: bool = False) -> np.ndarray:
        m = self.mask if include_diagonal else self.mask & ~np.eye(len(self.mask), dtype=bool)
        return np.argwhere(m)

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def quantize_masses(raw: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of real unit counts `raw` to nonnegative
    integers that sum to `total` exactly."""
    base = np.floor(raw).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:short]] += 1
    elif short < 0:
        order = np.argsort(raw - base, kind="stable")
        take = order[base[order] > 0][: -short]
        base[take] -= 1
    return base


def _quantile_pairs(units0, units1):
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


def _engine_line(space: MMSpace, mu0, mu1):
    """Exact quantile coupling and CDF-sign potential on a 1D-embeddable metric."""
    t = space.line_coord
    order = np.argsort(t, kind="stable")
    u0, u1 = (quantize_masses(m * MASS_SCALE, int(round(m.sum() * MASS_SCALE)))
              for m in (mu0[order], mu1[order]))
    couple = _quantile_pairs(u0, u1)
    pairs = np.array([[order[i], order[j]] for i, j, _ in couple], dtype=int).reshape(-1, 2)
    masses = np.array([m for _, _, m in couple], dtype=float) / MASS_SCALE

    # phi' = -1 where mass still to move rightward (F0 > F1), +1 leftward.
    c0 = np.cumsum(u0)
    c1 = np.cumsum(u1)
    flux = c0 - c1                       # exact integers on each gap
    gaps = np.diff(t[order])
    slope = np.sign(flux[:-1]).astype(float)
    phi_sorted = np.concatenate([[0.0], np.cumsum(-slope * gaps)])
    phi = np.empty_like(phi_sorted)
    phi[order] = phi_sorted
    return pairs, masses, phi, "line"


def _engine_assignment(D_sub, a, b):
    rows, cols = linear_sum_assignment(D_sub)
    masses = a[rows]
    return np.stack([rows, cols], axis=1), masses, None, "assignment"


def _sparse_eq(S, T, arc_src, arc_dst):
    k = len(arc_src)
    rows = np.concatenate([arc_src, S + arc_dst])
    cols = np.concatenate([np.arange(k), np.arange(k)])
    return sparse.coo_matrix((np.ones(2 * k), (rows, cols)), shape=(S + T, k)).tocsc()


# HiGHS feasibility tolerances for every restricted LP. At the default
# 1e-7, plan marginals come back off by up to ~6e-8, far beyond the 1e-10
# that certification allows.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_MAX_ROUNDS = 60
# Supplies and demands are scaled by this power of two in each restricted
# LP and the arc masses scaled back, exactly. HiGHS returns basic masses as
# low as -1e-10, inside its feasibility tolerance (which it will not take
# below 1e-10), and cutting them at zero would move the plan marginals by
# as much; scaled back, they are 8 times smaller. Duals do not change.
_LP_SCALE = 8.0


def _engine_highs_generated(D_sub, a, b):
    """Arc generation: restricted transportation LPs plus reduced-cost pricing.

    The arc set starts from each point's nearest counterparts and a greedy
    staircase (so the restricted LP is feasible), and each round adds the
    most violated arcs outside it. The plan is optimal once no arc outside
    the set prices negative: arcs inside it are priced by the LP itself,
    whose duals can leave them at tiny negative reduced costs. Returns
    (pairs, masses, seed, record) with record = {"rounds", "arcs"}.
    """
    S, T = D_sub.shape
    k_nn = 8
    inset = np.zeros((S, T), dtype=bool)
    inset[np.arange(S)[:, None], np.argpartition(D_sub, min(k_nn, T - 1), axis=1)[:, :k_nn]] = True
    inset[np.argpartition(D_sub, min(k_nn, S - 1), axis=0)[:k_nn, :], np.arange(T)] = True
    # greedy staircase arcs guarantee a feasible restricted problem
    i = j = 0
    ra, rb = a.copy(), b.copy()
    while i < S and j < T:
        inset[i, j] = True
        m = min(ra[i], rb[j])
        ra[i] -= m
        rb[j] -= m
        if ra[i] <= rb[j]:
            i += 1
        else:
            j += 1
    scale = max(D_sub.max(), 1.0)
    for rounds in range(1, _MAX_ROUNDS + 1):
        src, dst = np.nonzero(inset)
        res = linprog(D_sub[src, dst], A_eq=_sparse_eq(S, T, src, dst),
                      b_eq=_LP_SCALE * np.concatenate([a, b]), bounds=(0, None),
                      method="highs", options=_HIGHS_OPTIONS)
        if res.status != 0:
            raise SolverFailure(f"HiGHS failed on restricted LP: {res.message}")
        u = res.eqlin.marginals[:S]
        v = res.eqlin.marginals[S:]
        reduced = D_sub - u[:, None] - v[None, :]
        vi, vj = np.nonzero((reduced < -1e-11 * scale) & ~inset)
        if len(vi) == 0:
            x = res.x / _LP_SCALE
            keep = x > 1e-12
            pairs = np.stack([src[keep], dst[keep]], axis=1)
            return pairs, x[keep], np.concatenate([u, -v]), {"rounds": rounds, "arcs": len(src)}
        order = np.argsort(reduced[vi, vj])[: 4 * (S + T)]
        inset[vi[order], vj[order]] = True
    raise SolverFailure("arc generation did not converge")


_KNN = 8            # nearest moved neighbours per point in the starting edge set
_BLOCK = 1 << 18    # matrix entries per row block of the dense checks
_CYCLE_CHECK = 16   # relaxation passes between negative-cycle checks


def _row_blocks(n, cols):
    """Row ranges of an n x cols matrix, about _BLOCK entries each."""
    rows = max(1, _BLOCK // max(cols, 1))
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def _relax(c, src, dst, w, starts, atol):
    """Jacobi Bellman-Ford for  c[dst] <= c[src] + w  over an edge list
    sorted by target (`starts` indexes each target's first edge).

    Returns the maximal solution below `c` and the passes taken, or None
    once a negative cycle is proven. Every _CYCLE_CHECK passes, each point
    lowered in that pass points at its tight in-edge (pointers persist
    between checks); a pointer cycle whose weight is below -atol is a
    negative cycle. Otherwise values still dropping by more than `atol`
    after m + 1 passes prove one, since shortest walks would need more
    than m edges. The absolute tolerance absorbs exact-zero cycles that
    float rounding turns into 1e-16-rate descent."""
    m = len(c)
    edge = np.full(m, -1)
    for k in range(1, m + 2):
        vals = c[src] + w
        best = np.minimum.reduceat(vals, starts)
        c2 = np.minimum(c, best)
        if (c - c2).max() <= atol:
            return c2, k
        if k % _CYCLE_CHECK == 0:
            e = np.flatnonzero((vals == best[dst]) & (c2 < c)[dst])
            edge[dst[e]] = e
            if _parent_cycle_weight(edge, src, w) < -atol:
                return None, k
        c = c2
    return None, m + 1


def _parent_cycle_weight(edge, src, w):
    """Least weight of a cycle in the pointer graph x <- src[edge[x]]
    (edge -1: no pointer), or 0.0 when it has none."""
    m = len(edge)
    pred = np.where(edge >= 0, src[edge], -1)
    far = pred
    for _ in range(m.bit_length()):      # far = pred^(2^b), 2^b > m
        far = np.where(far >= 0, far[far], -1)
    seen = np.zeros(m, dtype=bool)
    worst = 0.0
    for x in np.unique(far[far >= 0]):   # one point on each cycle, or more
        weight = 0.0
        while not seen[x]:
            seen[x] = True
            weight += w[edge[x]]
            x = pred[x]
        worst = min(worst, weight)
    return worst


class _ActiveSet:
    """Difference constraints  c_i - c_j <= W[j, i]  on the m moved points,
    relaxed over a growing subset of the m^2 edges j -> i.

    W[j, i] = Dm[j, i] - t, except on the exempt pairs (the diagonal and
    both directions of every support pair), where it is Dm[j, i], lowered
    to -Dm[x, y] + eq on each support edge x -> y (saturation). The set
    starts with the exempt edges and each point's _KNN nearest non-exempt
    neighbours in both directions; it only grows, since every extra edge
    is a constraint of the full system, and serves every (t, eq) attempt.
    """

    def __init__(self, Dm, pairs_local):
        m = len(Dm)
        x, y = pairs_local[:, 0], pairs_local[:, 1]
        self.Dm, self.n_sat = Dm, len(x)
        self.exempt = np.eye(m, dtype=bool)
        self.exempt[x, y] = self.exempt[y, x] = True
        k = min(_KNN, m - 1)
        near = []                            # edge keys j * m + i
        for lo, hi in _row_blocks(m, m):
            d = np.where(self.exempt[lo:hi], np.inf, Dm[lo:hi])
            i = np.repeat(np.arange(lo, hi), k)
            j = np.argpartition(d, k - 1, axis=1)[:, :k].ravel()
            ok = np.isfinite(d[i - lo, j])
            near += [i[ok] * m + j[ok], j[ok] * m + i[ok]]
        near = np.unique(np.concatenate(near))
        diag = np.arange(m)
        self._set(np.concatenate([diag, x, y, near // m]), np.concatenate([diag, y, x, near % m]))

    def _set(self, src, dst):
        # edge order: m self-loops, the support edges x -> y, their
        # reverses, then the deflated (non-exempt) edges
        self.src, self.dst = src, dst
        self.base = self.Dm[src, dst]
        self.order = np.argsort(dst, kind="stable")
        self.starts = np.searchsorted(dst[self.order], np.arange(len(self.Dm)))

    def _violated(self, c, t, atol):
        """Each target's best in-edge per row block, where it beats c by more than atol."""
        srcs, dsts = [], []
        for lo, hi in _row_blocks(len(c), len(c)):
            B = c[lo:hi, None] + self.Dm[lo:hi]
            B -= t
            B[self.exempt[lo:hi]] = np.inf
            hit = np.flatnonzero(B.min(axis=0) < c - atol)
            srcs.append(lo + B[:, hit].argmin(axis=0))
            dsts.append(hit)
        return np.concatenate(srcs), np.concatenate(dsts)

    def solve(self, t, eq, start, atol):
        """Maximal solution below `start` at deflation margin t and
        equality slack eq, or None when a negative cycle is proven.
        Returns (values, record)."""
        m, p = len(self.Dm), self.n_sat
        c, passes, rounds = start, 0, 0
        while True:
            rounds += 1
            w = self.base.copy()
            w[m + 2 * p:] -= t
            w[m:m + p] = np.minimum(w[m:m + p], eq - w[m:m + p])
            o = self.order
            c, k = _relax(c, self.src[o], self.dst[o], w[o], self.starts, atol)
            passes += k
            if c is None:
                break
            src, dst = self._violated(c, t, atol)
            if len(src) == 0:
                break
            self._set(np.concatenate([self.src, src]), np.concatenate([self.dst, dst]))
        record = {"margin": t, "eq": eq, "outcome": "negative-cycle" if c is None else "feasible",
                  "passes": passes, "rounds": rounds, "active_edges": len(self.src)}
        return c, record


SLACK_LADDER = (1e-6, 1e-7, 1e-8, 1e-9, 3e-10)


def _tighten_potential(D, moved, pairs_local, seed):
    """Exact dual values on the moved points via constraint relaxation.

    Difference constraints: c_p - c_q <= d(p,q) for all moved p,q, with
    equality enforced on support pairs. Optimality of the plan rules out
    negative cycles, so the maximal solution below the seed exists.

    The raw maximal solution rides a spanning tree of accidentally tight
    constraints (every Bellman fixed point has one active constraint per
    node), which downstream Gamma extraction would mistake for transport
    pairs. Further attempts therefore deflate all non-support constraints
    by a margin: support saturation stays (near-)exact while non-forced
    pairs keep slack at least the margin. Feasibility of the deflated
    system needs the margin below the instance's smallest mean
    co-optimality gap, so a descending ladder is tried and the largest
    feasible margin is returned (0.0 when every deflation is infeasible;
    the undeflated solution is then used).

    When the engine's plan is marginally suboptimal (near-degenerate
    exchange ties below its pivot tolerance), exact support equalities
    are themselves a negative cycle; the equality constraints are then
    relaxed along their own tiny ladder, trading up to `eq` saturation
    slack on support pairs for feasibility.

    Each attempt relaxes over a sparse active edge set (`_ActiveSet`),
    then checks the full m x m system densely, in row blocks; violated
    constraints join the set and relaxation resumes from the current
    values, which stay above the full system's maximal solution. An
    attempt is feasible once the dense check passes, and infeasible only
    when relaxation on the active set proves a negative cycle, which is
    a cycle of the full system too. Outcomes are thus properties of the
    instance, not of the seed or of a pass budget.

    Returns (values, margin, eq, rungs), where `rungs` records every
    attempt, undeflated ones included: margin, eq, outcome
    ("feasible" / "negative-cycle"), passes, rounds and active edges.
    """
    m = len(moved)
    if m == 0:
        return np.zeros(0), 0.0, 0.0, []
    seed = seed if seed is not None else np.zeros(m)
    scale = 1.0 + float(D.max())
    active = _ActiveSet(D[np.ix_(moved, moved)], pairs_local)
    atol = 1e-13 * scale
    rungs = []

    def attempt(t, eq):
        c, record = active.solve(t, eq, seed, atol)
        rungs.append(record)
        return c

    for eq_rel in (0.0, 1e-12, 1e-11, 1e-10):
        eq = eq_rel * scale
        c0 = attempt(0.0, eq)
        if c0 is not None:
            break
    if c0 is None:
        raise SolverFailure("potential tightening found a negative cycle at every "
                            "equality slack: the plan is not optimal")
    for rel in SLACK_LADDER:
        if rel * scale <= 2 * eq:
            break
        c = attempt(rel * scale, eq)
        if c is not None:
            return c, rel * scale, eq, rungs
    return c0, 0.0, eq, rungs


def _check_probability(mu, n, name):
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise UnbalancedMarginals(f"{name} has shape {mu.shape}, expected ({n},)")
    if np.any(mu < 0) or not np.all(np.isfinite(mu)):
        raise UnbalancedMarginals(f"{name} must be finite and nonnegative")
    if abs(mu.sum() - 1.0) > 1e-8:
        raise UnbalancedMarginals(f"{name} sums to {mu.sum()}, expected 1")
    return mu


def solve_w1(space: MMSpace, mu0, mu1) -> W1Solution:
    """Exact W1 plan and certified dual potential on a finite space."""
    n = space.n
    mu0 = _check_probability(mu0, n, "mu0")
    mu1 = _check_probability(mu1, n, "mu1")
    if abs(mu0.sum() - mu1.sum()) > 1e-10:
        raise UnbalancedMarginals("mu0 and mu1 carry different total mass")
    D = space.D

    slack_floor = 0.0
    tightening = {}
    colgen = {}
    if space.line_coord is not None:
        pairs, masses, phi, tag = _engine_line(space, mu0, mu1)
        keep = masses > 0
        pairs, masses = pairs[keep], masses[keep]
    else:
        b = mu0 - mu1
        src = np.where(b > 0)[0]
        snk = np.where(b < 0)[0]
        diag_idx = np.where(np.minimum(mu0, mu1) > 0)[0]
        diag_pairs = np.stack([diag_idx, diag_idx], axis=1)
        diag_mass = np.minimum(mu0, mu1)[diag_idx]
        if len(src) == 0:
            pairs, masses, phi, tag = diag_pairs, diag_mass, np.zeros(n), "identity"
        else:
            a = b[src]
            d = -b[snk]
            D_sub = np.ascontiguousarray(D[np.ix_(src, snk)])
            S, T = len(src), len(snk)
            if S == T and np.ptp(a) == 0 and np.ptp(d) == 0 and abs(a[0] - d[0]) < 1e-15:
                loc_pairs, loc_mass, seed, tag = _engine_assignment(D_sub, a, d)
            else:
                loc_pairs, loc_mass, seed, colgen = _engine_highs_generated(D_sub, a, d)
                tag = "highs-colgen"
            moved = np.concatenate([src, snk])
            support_local = np.stack([loc_pairs[:, 0], S + loc_pairs[:, 1]], axis=1)
            c, slack_floor, eq, rungs = _tighten_potential(D, moved, support_local, seed)
            tightening = {"eq": eq, "rungs": rungs}
            phi = _extend_potential(D, moved, c)
            flow_pairs = np.stack([src[loc_pairs[:, 0]], snk[loc_pairs[:, 1]]], axis=1)
            pairs = np.concatenate([diag_pairs, flow_pairs], axis=0)
            masses = np.concatenate([diag_mass, loc_mass])

    return _certify(space, mu0, mu1, pairs, masses, phi, engine=tag, slack_floor=slack_floor,
                    tightening=tightening, colgen=colgen)


def _extend_potential(D, moved, c):
    """phi on every point from values c on the moved points: the midpoint
    of the least and the greatest 1-Lipschitz extension, in row blocks."""
    phi = np.empty(len(D))
    for lo, hi in _row_blocks(len(D), len(moved)):
        Dm = D[lo:hi][:, moved]
        phi[lo:hi] = 0.5 * ((c[None, :] + Dm).min(axis=1) + (c[None, :] - Dm).max(axis=1))
    return phi


def _lipschitz_residual(phi, D):
    """max over x, y of |phi(x) - phi(y)| - d(x, y), clipped at 0, in row blocks."""
    lip = 0.0
    for lo, hi in _row_blocks(len(D), len(D)):
        lip = max(lip, float((np.abs(phi[lo:hi, None] - phi[None, :]) - D[lo:hi]).max()))
    return lip


def _certify(space: MMSpace, mu0, mu1, pairs, masses, phi, engine: str,
             **fields) -> W1Solution:
    """Check a plan and potential and assemble the W1Solution (with the
    engine's record `fields`).

    Checks run cheapest first: plan marginals, the duality gap, then the
    Lipschitz residual; the first one that fails raises SolverFailure
    naming it. A given certificate (engine "certificate") is reported in
    the words of `from_certificate`.
    """
    given = engine == "certificate"
    D = space.D
    masses = np.asarray(masses, dtype=float)
    phi = phi - phi.min()
    _check_marginals(pairs, masses, mu0, mu1)
    primal = float((masses * D[pairs[:, 0], pairs[:, 1]]).sum()) if len(masses) else 0.0
    dual = float(phi @ (mu0 - mu1))
    gap = primal - dual
    scale = 1.0 + abs(primal)
    if given and not (-1e-10 * scale <= gap <= 1e-9 * scale):
        raise SolverFailure(f"certificate does not close: gap {gap}")
    if gap < -1e-10 * scale:
        raise SolverFailure(f"negative duality gap {gap}")
    if gap > 1e-9 * scale:
        raise SolverFailure(f"duality gap {gap} beyond certification tolerance")
    gap = max(gap, 0.0)
    lip = _lipschitz_residual(phi, D)
    if lip > 1e-9 * max(space.max_distance, 1.0):
        raise SolverFailure(f"certificate potential not 1-Lipschitz: {lip}" if given
                            else f"potential is not 1-Lipschitz: residual {lip}")
    moving = (masses > 0) & (pairs[:, 0] != pairs[:, 1])
    if moving.any():
        i, j = pairs[moving, 0], pairs[moving, 1]
        support_residual = max(float((D[i, j] - (phi[i] - phi[j])).max()), 0.0)
    else:
        support_residual = 0.0
    return W1Solution(pairs, masses, primal, phi, lip, gap, mu0, mu1, engine=engine,
                      support_residual=support_residual, **fields)


def _check_marginals(pairs, masses, mu0, mu1, tol: float = 1e-10):
    n = len(mu0)
    m0 = np.zeros(n)
    m1 = np.zeros(n)
    np.add.at(m0, pairs[:, 0], masses)
    np.add.at(m1, pairs[:, 1], masses)
    err = max(np.abs(m0 - mu0).max(), np.abs(m1 - mu1).max())
    if err > tol:
        raise SolverFailure(f"plan marginal error {err} exceeds {tol}")


def from_certificate(space: MMSpace, mu0, mu1, pairs, masses, potential) -> W1Solution:
    """Assemble a W1Solution from an explicitly given plan and potential.

    Validates marginals, strong duality and the Lipschitz bound; raises
    SolverFailure if the certificate does not close. Useful when a
    construction carries a known optimal pair (plan, phi).
    """
    n = space.n
    mu0 = _check_probability(mu0, n, "mu0")
    mu1 = _check_probability(mu1, n, "mu1")
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    phi = np.asarray(potential, dtype=float)
    return _certify(space, mu0, mu1, pairs, masses, phi, engine="certificate")


def gamma_tol(space: MMSpace, solution: W1Solution,
              rel: float = DEFAULT_GAMMA_TOL_FACTOR) -> float:
    """The Gamma tolerance policy: `rel` times max(diameter, 1), lowered to
    a quarter of the certified `slack_floor` (so no pair the potential
    keeps slack joins Gamma) and raised to 4 `support_residual` (so every
    plan pair stays in)."""
    tol = rel * max(space.max_distance, 1.0)
    if solution.slack_floor > 0:
        tol = min(tol, solution.slack_floor / 4)
    return max(tol, 4 * solution.support_residual)


def gamma_set(space: MMSpace, solution: W1Solution, tol: float | None = None) -> GammaSet:
    """All pairs with phi(x) - phi(y) >= d(x,y) - tol (diagonal included);
    `tol` defaults to `gamma_tol(space, solution)`."""
    if tol is None:
        tol = gamma_tol(space, solution)
    if solution.lipschitz_residual > tol:
        raise TolTooSmall(
            f"lipschitz residual {solution.lipschitz_residual} above tol {tol}")
    phi, D = solution.potential, space.D
    mask = np.empty(D.shape, dtype=bool)
    for lo, hi in _row_blocks(len(D), len(D)):
        mask[lo:hi] = (phi[lo:hi, None] - phi[None, :]) >= (D[lo:hi] - tol)
    moving = solution.masses > 0
    i, j = solution.pairs[moving, 0], solution.pairs[moving, 1]
    offdiag = i != j
    if not mask[i[offdiag], j[offdiag]].all():
        raise TolTooSmall(
            "positive-mass plan pair excluded from Gamma at this tol "
            f"(solution.support_residual = {solution.support_residual:g})")
    return GammaSet(mask, tol)


def check_cyclic_monotonicity(space: MMSpace, gamma: GammaSet, k: int = 4,
                              trials: int = 10_000, rng=None) -> dict:
    """Worst violation of the cycle inequality over random k-subsets of Gamma."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = rng or np.random.default_rng(0)
    pairs = gamma.pairs()
    if len(pairs) == 0:
        return {"worst_violation": 0.0, "trials": 0, "k": k, "vacuous": True}
    idx = rng.integers(0, len(pairs), size=(trials, k))
    x = pairs[idx, 0]
    y = pairs[idx, 1]
    matched = space.D[x, y].sum(axis=1)
    shifted = space.D[x, np.roll(y, -1, axis=1)].sum(axis=1)
    worst = float((matched - shifted).max())
    return {"worst_violation": worst, "trials": trials, "k": k, "vacuous": False}


def check_geodesic_stability(space: MMSpace, gamma: GammaSet, samples: int = 200,
                             rng=None) -> dict:
    """Fraction of chain sub-pairs of sampled Gamma pairs that leave Gamma.

    Chains come from `space.snapped_chain`: the geodesic oracle, or on
    sphere samples the snapped approximate chain (mesh-scale deviation,
    see module docs). Each chain of more than two points gives 20 random
    sub-pairs.
    """
    rng = rng or np.random.default_rng(0)
    pairs = gamma.pairs()
    if len(pairs) == 0:
        return {"failure_fraction": 0.0, "tested": 0, "vacuous": True}
    take = rng.integers(0, len(pairs), size=min(samples, len(pairs)))
    tested = failed = 0
    for x, y in pairs[take]:
        chain = space.snapped_chain(int(x), int(y))
        if len(chain) <= 2:
            continue
        c = np.array(chain)
        iu = rng.integers(0, len(c) - 1, size=20)
        iv = rng.integers(0, len(c) - 1, size=20)
        lo = np.minimum(iu, iv)
        hi = np.maximum(iu, iv) + 1
        tested += len(lo)
        failed += int((~gamma.mask[c[lo], c[hi]]).sum())
    frac = failed / tested if tested else 0.0
    return {"failure_fraction": frac, "tested": tested, "vacuous": tested == 0}
