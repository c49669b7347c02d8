"""Wasserstein-1 primal/dual solver and the saturated pair set.

The primal is solved exactly per instance class: a quantile sweep for
1D-embeddable metrics; when net supplies are uniform and balanced in count,
scipy's shortest-augmenting-path assignment solver on row- and
column-reduced costs, which keep the optimal permutations and spare its
augmenting paths most columns; and otherwise arc generation on the
bipartite transportation LP: one HiGHS model holds the restricted
LP, gains the arcs that price negative against all S x T arcs as new
columns each round, and re-solves by dual simplex from its last basis,
until no arc outside the set prices negative. Each column is bounded by
min(a_i, b_j), which the row and column sums already imply, so a new
column can sit at its bound and the basis stays dual feasible; the bounds
come off, with one re-solve, once the bounded LP is optimal. Costs are
scaled by a power of two in the LP, so that HiGHS's dual tolerance, scaled
back, lies below the tolerance at which arcs are priced: no arc, in the
set or out, ends below it. The masses are then solved exactly on the
final basis.

Whatever the engine, the dual potential is re-derived: seed values from
the engine are tightened by Bellman-Ford relaxation of the difference
constraints  phi(x) - phi(y) <= d(x,y)  with equality on the plan
support, then extended to unmoved points by infimal convolution with the
distance cones. Relaxation runs on the components of the support forest
over a sparse active set of constraints, each Jacobi pass followed by a
walk of its pointer forest (pointer jumping), so passes do not follow hop
depth; a blocked dense check adds every violated constraint until none is
left, and an attempt fails only on a proven negative cycle (a broken 1- or
2-cycle of components before any pass), so which slack margin is accepted
depends on the instance alone, not on the seed or a pass budget. The result is
1-Lipschitz to machine precision and saturates every support pair up to
the relaxation's tolerance (`support_residual`), so strong duality holds
with no solver tolerance in the loop.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.optimize._highspy._core import HighsBasisStatus, HighsModelStatus, _Highs
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .errors import BadParameter, SolverFailure, TolTooSmall, UnbalancedMarginals
from .mmspace import MMSpace, _row_ranges, _vector

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
    support_residual: float = 0.0   # measured max saturation slack over plan pairs, <= _RTOL scale
    # potential tightening record: every relaxation attempt and the support
    # components (see _tighten_potential); empty when the engine needs no tightening
    tightening: dict = dataclasses.field(default_factory=dict)
    # arc generation record: LP rounds, the final restricted-LP arc count,
    # simplex iterations per round and the columns left at their implied
    # bound (`_engine_highs_generated`); empty on the line, identity and
    # assignment routes
    colgen: dict = dataclasses.field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "plan": [(int(i), int(j), float(m)) for (i, j), m in zip(self.pairs, self.masses)],
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


def _packed(M: np.ndarray) -> np.ndarray:
    """Rows of bool M as bit rows in zero-padded uint64 words."""
    bits = np.packbits(M, axis=1)
    out = np.zeros((len(bits), -(-bits.shape[1] // 8)), np.uint64)
    out.view(np.uint8)[:, :bits.shape[1]] = bits
    return out


def _unpacked(P: np.ndarray, n: int) -> np.ndarray:     # bit rows P as (len(P), n) bools
    return np.unpackbits(P.view(np.uint8), axis=1, count=n).view(bool)


def _set_bits(P: np.ndarray, x: int, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Column indices of the set bits of bit row P[x] within its words lo:hi."""
    return 64 * lo + np.flatnonzero(np.unpackbits(P[x, lo:hi].view(np.uint8)))


def _nonzero_bits(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every set bit of the bit rows P, row-major; only the
    nonzero words are unpacked."""
    r, w = np.nonzero(P)
    k, b = np.nonzero(np.unpackbits(P[r, w].view(np.uint8).reshape(-1, 8), axis=1))
    return r[k], 64 * w[k] + b


def _bit(P: np.ndarray, i, j) -> np.ndarray:
    """Bit (i, j) of the bit rows P, elementwise for broadcastable index arrays."""
    return (P.view(np.uint8)[i, j >> 3] >> (7 - (j & 7)) & 1) == 1


def _run_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(len(lo), len(lo)) bools whose row x holds the columns [lo[x], hi[x])."""
    j = np.arange(len(lo))
    return (lo[:, None] <= j) & (j < hi[:, None])


@dataclasses.dataclass
class GammaSet:
    """Pairs with phi(x) - phi(y) >= d(x,y) - tol, diagonal included, in one
    stored form.

    On sorted coordinates, where every row is one run of columns, the rows
    are kept as `runs`, a (4, n) array: row x of Gamma is [runs[0, x],
    runs[1, x]) and row x of Gamma^-1 is [runs[2, x], runs[3, x]); `fwd`
    and `bwd` are then None. Every other Gamma is kept as bit rows
    (`_packed`) of Gamma (`fwd`) and Gamma^-1 (`bwd`), and `runs` is None.
    """

    fwd: np.ndarray | None
    tol: float
    bwd: np.ndarray | None
    runs: np.ndarray | None = None

    @property
    def mask(self) -> np.ndarray:
        """Gamma as an (n, n) bool array, built afresh on each call; for inspection."""
        if self.runs is not None:
            return _run_rows(self.runs[0], self.runs[1])
        return _unpacked(self.fwd, len(self.fwd))

    @property
    def count(self) -> int:
        if self.runs is not None:
            return int((self.runs[1] - self.runs[0]).sum())
        return int(np.bitwise_count(self.fwd).sum())


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


def _quantile_pairs(units0, units1) -> np.ndarray:
    """Monotone (quantile) integer coupling of two atom lists sorted by position.

    Rows (i, j, m) of a (k, 3) int64 array: [0, min total] is cut at every
    partial sum of either list, and each piece couples the source and
    target atoms whose mass intervals contain it. Zero atoms get no row.
    """
    c0 = np.cumsum(units0, dtype=np.int64)
    c1 = np.cumsum(units1, dtype=np.int64)
    top = min(c0[-1], c1[-1]) if len(c0) and len(c1) else 0
    cuts = np.sort(np.concatenate([c0, c1]), kind="stable")     # a merge of two sorted runs
    cuts = cuts[(cuts > 0) & (cuts <= top) & (np.diff(cuts, prepend=0) != 0)]   # each cut once
    return np.stack([np.searchsorted(c0, cuts), np.searchsorted(c1, cuts),
                     np.diff(cuts, prepend=0)], axis=1).astype(np.int64, copy=False)


def _engine_line(space: MMSpace, mu0, mu1):
    """Exact quantile coupling and CDF-sign potential on a 1D-embeddable metric."""
    t = space.line_coord
    order = np.argsort(t, kind="stable")
    u0, u1 = (quantize_masses(m * MASS_SCALE, int(round(m.sum() * MASS_SCALE)))
              for m in (mu0[order], mu1[order]))
    couple = _quantile_pairs(u0, u1)
    pairs = order[couple[:, :2]]
    masses = couple[:, 2] / MASS_SCALE

    # phi' = -1 where mass still to move rightward (F0 > F1), +1 leftward.
    flux = np.cumsum(u0 - u1)            # exact integers on each gap
    gaps = np.diff(t[order])
    slope = np.sign(flux[:-1]).astype(float)
    phi_sorted = np.concatenate([[0.0], np.cumsum(-slope * gaps)])
    phi = np.empty_like(phi_sorted)
    phi[order] = phi_sorted
    return pairs, masses, phi, "line"


def _engine_assignment(D_sub, a, b):
    # each row, then each column, less its least entry: every assignment's
    # cost shifts alike, and zero minima stop the searches early
    R = D_sub - D_sub.min(axis=1, keepdims=True)
    R -= R.min(axis=0)
    rows, cols = linear_sum_assignment(R)
    masses = a[rows]
    return np.stack([rows, cols], axis=1), masses, None, "assignment"


# HiGHS feasibility tolerances for every restricted LP. At the default
# 1e-7, plan marginals come back off by up to ~6e-8, far beyond the 1e-10
# that certification allows.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_MAX_ROUNDS = 60
# Supplies and demands are scaled by this power of two in the restricted
# LP. HiGHS stops at bases whose basic masses go as low as -1e-10, inside
# its feasibility tolerance (which it will not take below 1e-10); scaled
# back, they are 8 times smaller, and `_basis_plan` pivots them out. Duals
# do not change.
_LP_SCALE = 8.0
# Arc costs are scaled by this power of two in the restricted LP, and the
# row duals scaled back, which is exact. HiGHS leaves reduced costs down to
# minus its dual feasibility tolerance, 1e-10 at least; scaled back, that
# is 1e-10 / _COST_SCALE, which must stay below _RTOL (times scale >= 1).
# With arcs outside the set priced at -_RTOL scale too, no arc's reduced
# cost ends below it; through the triangle inequality, neither does any
# constraint between moved points, so exact saturation of the plan is
# feasible at the tightening's tolerance.
_COST_SCALE = 2.0**10
# relative tolerance (times scale) of pricing and of potential tightening
_RTOL = 1e-13
# basic masses below minus this, and trees of the basis out of balance by
# more, are primal infeasible and pivoted out of the basis (`_basis_plan`)
_MASS_TOL = 1e-15


def _engine_highs_generated(D_sub, a, b):
    """Arc generation on one HiGHS model: a restricted transportation LP
    that gains columns each round, warm-started from the last basis.

    The arc set starts from each point's nearest counterparts and a greedy
    staircase (so the restricted LP is feasible), and each round adds the
    most violated arcs outside it as new columns. Each column has upper
    bound min(a_i, b_j) (scaled like the rows): every feasible plan obeys
    it, since the row and column sums force it, so neither the feasible
    set nor the optimum changes. A new column that prices negative enters
    nonbasic at that bound, the previous basis stays dual feasible, and
    the dual simplex resumes in phase 2 (unbounded, each such column would
    make the basis dual infeasible and force dual phase 1). The first time no
    arc outside the set prices negative, every bound comes off and the LP
    is re-solved once from its basis, as a round of its own; pricing then
    goes on as before, so the final basis is one of the unbounded LP.
    The plan is optimal once no arc outside the set prices below
    -_RTOL scale: arcs inside it are priced by the LP itself, whose duals
    can leave them at tiny negative reduced costs, held above that bound by
    the cost scale (_COST_SCALE). The masses are then solved on the final
    basis exactly (`_basis_plan`). Returns (pairs, masses, seed, record)
    with record = {"rounds", "arcs", "simplex_iterations", "at_bound"}:
    the dual simplex iterations of each round in a list, and the number
    of columns nonbasic at their bound when the bounded LP converged.
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
    lp = _Highs()
    lp.setOptionValue("output_flag", False)
    for name, value in _HIGHS_OPTIONS.items():
        lp.setOptionValue(name, value)
    rhs = _LP_SCALE * np.concatenate([a, b])
    lp.addRows(S + T, rhs, rhs, 0, np.zeros(S + T, np.int32), np.zeros(0, np.int32), np.zeros(0))
    src, dst = np.nonzero(inset)
    new = slice(0, len(src))
    iterations, at_bound = [], None     # at_bound is set when the bounds come off
    for rounds in range(1, _MAX_ROUNDS + 1):
        k = new.stop - new.start
        rows = np.stack([src[new], S + dst[new]], axis=1).astype(np.int32).ravel()
        upper = (_LP_SCALE * np.minimum(a[src[new]], b[dst[new]]) if at_bound is None
                 else np.full(k, np.inf))
        lp.addCols(k, _COST_SCALE * D_sub[src[new], dst[new]], np.zeros(k), upper, 2 * k,
                   np.arange(0, 2 * k, 2, dtype=np.int32), rows, np.ones(2 * k))
        lp.run()
        if lp.getModelStatus() != HighsModelStatus.kOptimal:
            raise SolverFailure("HiGHS failed on restricted LP: "
                                + lp.modelStatusToString(lp.getModelStatus()))
        iterations.append(lp.getInfo().simplex_iteration_count)
        y = np.asarray(lp.getSolution().row_dual) / _COST_SCALE
        pi = np.concatenate([y[:S], -y[S:]])
        reduced = D_sub - pi[:S, None] + pi[None, S:]
        vi, vj = np.nonzero((reduced < -_RTOL * scale) & ~inset)
        if len(vi) == 0 and at_bound is None:
            # optimal over all arcs under the implied bounds: take them off
            status = np.asarray(lp.getBasis().col_status)
            at_bound = int(np.count_nonzero(status == HighsBasisStatus.kUpper))
            cols = lp.getNumCol()
            lp.changeColsBounds(cols, np.arange(cols, dtype=np.int32), np.zeros(cols),
                                np.full(cols, np.inf))
            new = slice(len(src), len(src))
            continue
        if len(vi) == 0:
            basic = lp.getBasicVariables()[1]
            arcs = basic[basic >= 0]
            pairs, masses, pi = _basis_plan(D_sub, a, b, src[arcs], dst[arcs],
                                            -1 - basic[basic < 0], pi)
            keep = masses > 0
            return pairs[keep], masses[keep], pi, {
                "rounds": rounds, "arcs": len(src), "simplex_iterations": iterations,
                "at_bound": at_bound}
        order = np.argsort(reduced[vi, vj])[: 4 * (S + T)]
        inset[vi[order], vj[order]] = True
        new = slice(len(src), len(src) + len(order))
        src, dst = np.concatenate([src, vi[order]]), np.concatenate([dst, vj[order]])
    raise SolverFailure("arc generation did not converge")


def _basis_masses(S, ends, supply, roots):
    """Masses on the basic arcs `ends` (source, S + sink) of a
    transportation basis, and the values of its basic row slacks at
    `roots`, solved from the supplies exactly up to rounding: the basis
    matrix is totally unimodular, so its LU factors hold only 0 and +-1
    and the solve only adds and subtracts supplies."""
    k, n = len(ends), len(supply)
    rows = np.concatenate([ends.ravel(), roots])
    cols = np.concatenate([np.repeat(np.arange(k), 2), k + np.arange(len(roots))])
    sol = spsolve(sparse.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)), supply)
    if not np.isfinite(sol).all():
        raise SolverFailure("restricted LP basis is singular")
    return sol[:k], sol[k:]


def _basis_plan(D_sub, a, b, src, dst, roots, pi):
    """The plan on a dual feasible transportation basis (basic arcs
    src -> dst, basic row slacks at `roots`, node potentials pi), made
    primal feasible by dual simplex pivots, so optimal over all S x T arcs.

    HiGHS accepts a basis whose masses, and whose slacks (one per tree of
    the basic forest: the tree's imbalance), are off by up to its
    feasibility tolerance. Solved exactly (`_basis_masses`), a mass below
    -_MASS_TOL leaves the basis, or else the slack of a tree out of balance
    by more. The part that this cuts off from its root must send more or
    take more; the nodes that must send raise their potentials by the
    least reduced cost of any arc, restricted or not, from their sources
    to the other sinks, and that arc enters, joining the part to a tree
    with a root again. Returns (pairs, masses, potentials).
    """
    S, n = len(a), len(a) + len(b)
    supply = np.concatenate([a, b])
    ends = np.stack([src, S + dst], axis=1)
    roots = np.asarray(roots)
    for _ in range(n):
        x, slack = _basis_masses(S, ends, supply, roots)
        excess = np.where(roots < S, 1.0, -1.0) * slack
        e = int(np.argmin(x)) if len(x) else -1     # a basis of row slacks alone has no arc
        r = int(np.argmax(np.abs(excess)))
        cut = e >= 0 and x[e] < -_MASS_TOL          # arc e leaves, else root r's slack
        if not cut and (len(roots) == 1 or abs(excess[r]) <= _MASS_TOL):
            return np.stack([ends[:, 0], ends[:, 1] - S], axis=1), x, pi
        kept = ends[np.arange(len(ends)) != e] if cut else ends
        graph = sparse.coo_matrix((np.ones(len(kept)), (kept[:, 0], kept[:, 1])), shape=(n, n))
        tree = connected_components(graph, directed=False)[1]   # without arc e on a cut
        if cut:
            # the part cut off from its root: e's sink part sends more, or
            # e's source part takes more from everyone else
            sink_part = tree == tree[ends[e, 1]]
            side = ~(tree == tree[ends[e, 0]]) if sink_part[roots].any() else sink_part
        else:
            side = (tree == tree[roots[r]]) == (excess[r] > 0)
        rs, cs = np.flatnonzero(side[:S]), np.flatnonzero(~side[S:])
        reduced = D_sub[np.ix_(rs, cs)] - pi[rs, None] + pi[None, S + cs]
        f = np.unravel_index(np.argmin(reduced), reduced.shape)
        pi = pi + reduced[f] * side
        arc = [rs[f[0]], S + cs[f[1]]]
        if cut:
            ends[e] = arc
        else:
            roots = np.delete(roots, r)
            ends = np.vstack([ends, arc])
    raise SolverFailure("restricted LP basis stays infeasible after dual pivots")


_KNN = 8            # nearest moved neighbours per point in the starting edge set
_CYCLE_CHECK = 16   # relaxation passes between negative-cycle checks


def _relax(c, src, dst, w, starts, atol, bound=None):
    """Jacobi Bellman-Ford for  c[dst] <= c[src] + w  over an edge list
    sorted by target (`starts` indexes each target's first edge).

    Returns (values, passes, proof): the maximal solution below `c`, the
    passes taken and an empty dict, or values None once a negative cycle
    is proven. After each pass, each point whose new value equals a
    non-self in-edge points at that edge (points with none keep their last
    pointer), and the pass's drops go down its pointer forest
    (`_walk_forest`): walk values, so still above the maximal solution;
    convergence is judged on the Jacobi step. Every _CYCLE_CHECK passes, a
    pointer cycle whose weight is below -atol is a negative cycle
    (Cherkassky-Goldberg's parent-graph check), and the proof is {"proof":
    "cycle", "cycle_length", "cycle_weight"}. Otherwise values still
    dropping by more than `atol` after `bound` passes (default, and least,
    m + 1) prove one, since shortest walks would need more than m edges:
    the proof is {"proof": "pass-bound"}. The absolute tolerance absorbs
    exact-zero cycles that float rounding turns into 1e-16-rate descent."""
    m = len(c)
    edge = np.full(m, -1)
    loop = src == dst
    bound = m + 1 if bound is None else bound
    for k in range(1, bound + 1):
        vals = c[src] + w
        c2 = np.minimum(c, np.minimum.reduceat(vals, starts))
        if (c - c2).max() <= atol:
            return c2, k, {}
        x = dst[e := np.flatnonzero((vals == c2[dst]) & ~loop)]
        edge[x] = e
        if k % _CYCLE_CHECK == 0:
            weight, length = _parent_cycle_weight(edge, src, w)
            if weight < -atol:
                return None, k, {"proof": "cycle", "cycle_length": length, "cycle_weight": weight}
        c = _walk_forest(c2, x, src[edge[x]], w[edge[x]])
    return None, bound, {"proof": "pass-bound"}


def _walk_forest(c, x, up, wt):
    """c where each point x[i] hangs below up[i] by an edge of weight wt[i]:
    by pointer jumping (Wyllie), in ceil(log2 m) steps at most, each point
    takes the least of its value and each ancestor's plus the path weight."""
    parent, weight = np.arange(len(c)), np.zeros(len(c))
    parent[x], weight[x] = up, wt
    for _ in range((len(c) - 1).bit_length()):
        c = np.minimum(c, c[parent] + weight)
        if ((grand := parent[parent]) == parent).all():
            break
        weight, parent = weight + weight[parent], grand
    return c


def _parent_cycle_weight(edge, src, w):
    """Least weight of a cycle in the pointer graph src[edge[x]] -> x (edge
    -1: no pointer) and its length, or (0.0, 0) when it has none. Each
    point has one pointer at most, so each strong component of more than
    one point is a single cycle, made of its points' pointer edges."""
    m = len(edge)
    has = edge >= 0
    x = np.flatnonzero(has)
    # the transpose, x -> src[edge[x]]: the same strong components, and CSR as it stands
    indptr = np.concatenate([[0], np.cumsum(has)])
    graph = sparse.csr_matrix((np.ones(len(x)), src[edge[x]], indptr), shape=(m, m))
    label = connected_components(graph, directed=True, connection="strong")[1]
    size = np.bincount(label)
    x = x[size[label[x]] > 1]
    if len(x) == 0:
        return 0.0, 0
    weight = np.bincount(label[x], weights=w[edge[x]])
    k = label[x][np.argmin(weight[label[x]])]
    return float(weight[k]), int(size[k])


def _exempted(B, lo, pairs=None):
    """Rows lo:lo + len(B) of a constraint matrix, B, less its diagonal and
    the entries `pairs` (rows, columns)."""
    B[np.arange(len(B)), lo + np.arange(len(B))] = np.inf
    if pairs is not None:
        r, c = pairs
        k = (lo <= r) & (r < lo + len(B))
        B[r[k] - lo, c[k]] = np.inf
    return B


class _ActiveSet:
    """Difference constraints  c_i - c_j <= W[j, i] - t  (i != j) on len(W)
    values, relaxed over a growing subset of the edges j -> i.

    The set starts with the self-loops, which are not deflated, and each
    value's _KNN nearest neighbours in both directions; it only grows,
    since every extra edge is a constraint of the full system, and serves
    every margin t.
    """

    def __init__(self, W):
        m = len(W)
        self.W = W
        k = min(_KNN, m - 1)
        near = []                            # edge keys j * m + i
        for lo, hi in _row_ranges(m, m):
            i = np.repeat(np.arange(lo, hi), k)
            j = np.argpartition(_exempted(W[lo:hi].copy(), lo), k - 1, axis=1)[:, :k].ravel()
            near += [i * m + j, j * m + i]
        near = np.unique(np.concatenate(near))
        diag = np.arange(m)
        self._set(np.concatenate([diag, near // m]), np.concatenate([diag, near % m]))

    def _set(self, src, dst):
        # edge order: m self-loops, then the deflated edges
        self.src, self.dst = src, dst
        self.base = self.W[src, dst]
        self.order = np.argsort(dst, kind="stable")
        self.starts = np.searchsorted(dst[self.order], np.arange(len(self.W)))

    def _violated(self, c, t, atol):
        """Each target's best in-edge per row block, where it beats c by more than atol."""
        srcs, dsts = [], []
        for lo, hi in _row_ranges(len(c), len(c)):
            B = c[lo:hi, None] + self.W[lo:hi]
            B -= t
            _exempted(B, lo)
            hit = np.flatnonzero(B.min(axis=0) < c - atol)
            srcs.append(lo + B[:, hit].argmin(axis=0))
            dsts.append(hit)
        return np.concatenate(srcs), np.concatenate(dsts)

    def solve(self, t, start, atol, bound=None):
        """Maximal solution below `start` at deflation margin t, or None when
        a negative cycle is proven (`_relax`, with its pass `bound`).
        Returns (values, record); a negative-cycle record says how the cycle
        was proven (`_relax`'s proof)."""
        m = len(self.W)
        c, passes, rounds = start, 0, 0
        while True:
            rounds += 1
            w = self.base.copy()
            w[m:] -= t
            o = self.order
            c, k, proof = _relax(c, self.src[o], self.dst[o], w[o], self.starts, atol, bound)
            passes += k
            if c is None:
                break
            src, dst = self._violated(c, t, atol)
            if len(src) == 0:
                break
            self._set(np.concatenate([self.src, src]), np.concatenate([self.dst, dst]))
        record = {"margin": t, "outcome": "negative-cycle" if c is None else "feasible",
                  "passes": passes, "rounds": rounds, "active_edges": len(self.src), **proof}
        return c, record


class _Contracted:
    """Exact saturation of the plan with one value u per component of the
    support forest: offsets with off_x - off_y = d(x, y) on every support
    pair make c_i = u[label_i] + off_i saturate them all, and the other
    constraints read u_a - u_b <= Mc[b, a] - t, the least d(j, i) + off_j - off_i
    over j in b, i in a, less the diagonal and the support pairs both ways
    (Mc's diagonal: inside one component). Distances are read from `space`
    between the points `moved`, in row blocks. `short` holds the least
    1-cycle (Mc's diagonal) and 2-cycle (Mc[a, b] + Mc[b, a]) weights with
    their lengths, and `cycle_bound` their least weight per component, above
    every feasible margin (up to the tolerance)."""

    def __init__(self, space, moved, pairs_local):
        m, p = len(moved), len(pairs_local)
        x, y = pairs_local[:, 0], pairs_local[:, 1]
        K, label = connected_components(
            sparse.csr_matrix((np.ones(p), (x, y)), shape=(m, m)), directed=False)
        if p != m - K:
            raise SolverFailure("the plan's support is not a forest")
        ends = np.concatenate([x, y, np.unique(label, return_index=True)[1]])   # pairs, roots
        walk = sparse.csc_matrix((np.repeat([1.0, -1.0, 1.0], [p, p, K]), (np.r_[:p, :m], ends)),
                                 shape=(m, m))
        off = spsolve(walk, np.concatenate([space.dist(moved[x], moved[y]), np.zeros(K)]))
        exempt = np.concatenate([x, y]), np.concatenate([y, x])
        Mc = np.full(K * K, np.inf)
        for lo, hi, B in space.row_blocks(moved, cols=moved):
            B = _exempted(B + off[lo:hi, None], lo, exempt)
            B -= off
            np.minimum.at(Mc, (K * label[lo:hi, None] + label).ravel(), B.ravel())
        Mc = Mc.reshape(K, K)
        two = min(float(_exempted(Mc[lo:hi] + Mc[:, lo:hi].T, lo).min())
                  for lo, hi in _row_ranges(K, K))
        self.label, self.off, self.short = label, off, ((float(Mc.diagonal().min()), 1), (two, 2))
        self.cycle_bound = min(weight / length for weight, length in self.short)
        np.fill_diagonal(Mc, 0.0)
        self.active = _ActiveSet(Mc)

    def solve(self, t, seed, atol):
        """`_ActiveSet.solve` on components, unless a 1- or 2-cycle that
        margin t breaks proves a negative cycle before any pass (proof
        "screen"); the pass bound stays the points' m + 1."""
        for weight, length in self.short:
            if weight - length * t < -atol:
                return None, {"margin": t, "outcome": "negative-cycle", "passes": 0, "rounds": 0,
                              "active_edges": len(self.active.src), "proof": "screen",
                              "cycle_length": length, "cycle_weight": weight - length * t}
        start = np.full(len(self.active.W), np.inf)
        np.minimum.at(start, self.label, seed - self.off)
        u, record = self.active.solve(t, start, atol, len(self.label) + 1)
        return None if u is None else u[self.label] + self.off, record


SLACK_LADDER = (1e-6, 1e-7, 1e-8, 1e-9, 3e-10)


def _tighten_potential(space, moved, pairs_local, seed):
    """Exact dual values on the points `moved` by relaxation.

    Difference constraints: c_p - c_q <= d(p,q) for all moved p,q, with
    equality on the support pairs `pairs_local` (indices into `moved`).
    Optimality of the plan rules out negative cycles, so the maximal
    solution below the seed exists; every engine leaves each arc's reduced
    cost above -_RTOL scale (scale = 1 + max d, the tolerance `atol` of
    every attempt), so it exists at that tolerance too.

    The raw maximal solution rides a spanning tree of accidentally tight
    constraints (every Bellman fixed point has one active constraint per
    node), which downstream Gamma extraction would mistake for transport
    pairs. Attempts therefore deflate all non-support constraints by a
    margin: support saturation stays exact while non-forced pairs keep
    slack at least the margin. Feasibility of the deflated system needs
    the margin below the instance's smallest mean co-optimality gap, so a
    descending ladder is tried and the largest feasible margin is
    returned. The undeflated system runs last, only when every margin
    fails: deflation only lowers constraints, so a feasible margin proves
    it feasible too. Every attempt runs on the support components
    (`_Contracted`).

    A margin that breaks a 1- or 2-cycle is rejected with no pass
    (`_Contracted.short`); otherwise it relaxes over a sparse active edge
    set (`_ActiveSet`, `_relax`), then checks the full system densely, in
    row blocks; violated constraints join the set and relaxation resumes
    from the current values, which stay above the full system's maximal
    solution. An attempt is feasible once the dense check passes, and
    infeasible only when a negative cycle is proven, which is a cycle of
    the full system too. Outcomes are thus properties of the instance, not
    of the seed or of a pass budget.

    Returns (values, margin, rungs, `_Contracted.cycle_bound`), where
    `rungs` records every attempt in the order run: margin, outcome
    ("feasible" / "negative-cycle"), passes, rounds, active edges and, on
    a negative cycle, how it was proven ("screen" or `_relax`'s proof;
    counted in components). A negative cycle in the undeflated system
    raises SolverFailure: the plan is not optimal.
    """
    scale = 1.0 + space.max_distance
    seed = seed if seed is not None else np.zeros(len(moved))
    merged, rungs = _Contracted(space, moved, pairs_local), []
    for rel in (*SLACK_LADDER, 0.0):       # the undeflated system last
        c, record = merged.solve(rel * scale, seed, _RTOL * scale)
        rungs.append(record)
        if c is not None:
            return c, rel * scale, rungs, merged.cycle_bound
    raise SolverFailure("potential tightening found a negative cycle at exact saturation: "
                        "the plan is not optimal")


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

    slack_floor = 0.0
    tightening = {}
    colgen = {}
    if space.line_coord is not None:
        pairs, masses, phi, tag = _engine_line(space, mu0, mu1)
    else:
        b = mu0 - mu1
        src = np.where(b > 0)[0]
        snk = np.where(b < 0)[0]
        diag_idx = np.where(np.minimum(mu0, mu1) > 0)[0]
        diag_pairs = np.stack([diag_idx, diag_idx], axis=1)
        diag_mass = np.minimum(mu0, mu1)[diag_idx]
        if len(src) == 0 or len(snk) == 0:     # b one-signed: each |b_i| is within the balance check
            pairs, masses, phi, tag = diag_pairs, diag_mass, np.zeros(n), "identity"
        else:
            a = b[src]
            d = -b[snk]
            D_sub = np.ascontiguousarray(space.rows(src, snk))
            S, T = len(src), len(snk)
            if S == T and np.ptp(a) == 0 and np.ptp(d) == 0 and abs(a[0] - d[0]) < 1e-15:
                loc_pairs, loc_mass, seed, tag = _engine_assignment(D_sub, a, d)
            else:
                loc_pairs, loc_mass, seed, colgen = _engine_highs_generated(D_sub, a, d)
                tag = "highs-colgen"
            moved = np.concatenate([src, snk])
            support_local = np.stack([loc_pairs[:, 0], S + loc_pairs[:, 1]], axis=1)
            c, slack_floor, rungs, bound = _tighten_potential(space, moved, support_local, seed)
            # the support is a forest (`_Contracted`): one component less per pair
            tightening = {"rungs": rungs, "components": len(moved) - len(loc_pairs),
                          "cycle_bound": bound}
            phi = _extend_potential(space, moved, c)
            flow_pairs = np.stack([src[loc_pairs[:, 0]], snk[loc_pairs[:, 1]]], axis=1)
            pairs = np.concatenate([diag_pairs, flow_pairs], axis=0)
            masses = np.concatenate([diag_mass, loc_mass])

    return _certify(space, mu0, mu1, pairs, masses, phi, engine=tag, slack_floor=slack_floor,
                    tightening=tightening, colgen=colgen)


def _extend_potential(space, moved, c):
    """phi on every point from values c on the moved points: the midpoint
    of the least and the greatest 1-Lipschitz extension, in row blocks."""
    phi = np.empty(space.n)
    for lo, hi, Dm in space.row_blocks(cols=moved):
        phi[lo:hi] = 0.5 * ((c[None, :] + Dm).min(axis=1) + (c[None, :] - Dm).max(axis=1))
    return phi


def _lipschitz_residual(phi, space):
    """max over x, y of |phi(x) - phi(y)| - d(x, y), clipped at 0 (+inf for a
    non-finite phi), or the upper bound `MMSpace.lipschitz_bound` where there is
    one; matrix spaces walk the pairs x <= y (both terms are symmetric bit for
    bit), the differences in one buffer, grown to the largest triangle block."""
    if not np.isfinite(phi).all():
        return np.inf
    if (lip := space.lipschitz_bound(phi)) is not None:
        return lip
    lip, buf = 0.0, np.empty(0)
    for lo, hi, block in space.triangle_blocks():
        if buf.size < block.size:
            buf = np.empty(block.size)
        diff = np.subtract(phi[lo:hi, None], phi[None, lo:],
                           out=buf[:block.size].reshape(block.shape))
        lip = max(lip, float(np.subtract(np.abs(diff, out=diff), block, out=diff).max()))
    return lip


def _certify(space: MMSpace, mu0, mu1, pairs, masses, phi, engine: str,
             **fields) -> W1Solution:
    """Check a plan and potential and assemble the W1Solution (with the
    engine's record `fields`).

    Checks run cheapest first: plan marginals, the duality gap, then the
    Lipschitz residual; the first one that fails raises SolverFailure
    naming it.
    """
    masses = np.asarray(masses, dtype=float)
    phi = phi - phi.min()
    _check_marginals(pairs, masses, mu0, mu1)
    primal = float((masses * space.dist(pairs[:, 0], pairs[:, 1])).sum()) if len(masses) else 0.0
    dual = float(phi @ (mu0 - mu1))
    gap = primal - dual
    scale = 1.0 + abs(primal)
    if gap < -1e-10 * scale:
        raise SolverFailure(f"negative duality gap {gap}")
    if not gap <= 1e-9 * scale:     # NaN fails too: a NaN mass or potential value
        raise SolverFailure(f"duality gap {gap} beyond certification tolerance")
    gap = max(gap, 0.0)
    lip = _lipschitz_residual(phi, space)
    if lip > 1e-9 * max(space.max_distance, 1.0):
        raise SolverFailure(f"potential is not 1-Lipschitz: residual {lip}")
    moving = (masses > 0) & (pairs[:, 0] != pairs[:, 1])
    if moving.any():
        i, j = pairs[moving, 0], pairs[moving, 1]
        support_residual = max(float((space.dist(i, j) - (phi[i] - phi[j])).max()), 0.0)
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
    if not err <= tol:      # NaN fails too
        raise SolverFailure(f"plan marginal error {err} exceeds {tol}")


def from_certificate(space: MMSpace, mu0, mu1, pairs, masses, potential) -> W1Solution:
    """Assemble a W1Solution from an explicitly given plan and potential.

    Validates marginals, strong duality and the Lipschitz bound; raises
    SolverFailure if the certificate does not close, and BadParameter for
    pairs outside the points, non-finite masses, or masses or a potential of
    the wrong length. Useful when a construction carries a known optimal pair.
    """
    n = space.n
    mu0 = _check_probability(mu0, n, "mu0")
    mu1 = _check_probability(mu1, n, "mu1")
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    if not ((0 <= pairs) & (pairs < n)).all():
        raise BadParameter(f"pairs must index the points 0..{n - 1}")
    masses = _vector(masses, len(pairs), "masses")
    if (bad := np.flatnonzero(~np.isfinite(masses))).size:
        raise BadParameter(f"masses must be finite, got {masses[bad[0]]} at pair {bad[0]}")
    phi = _vector(potential, n, "potential")
    return _certify(space, mu0, mu1, pairs, masses, phi, engine="certificate")


def gamma_tol(space: MMSpace, solution: W1Solution,
              rel: float = DEFAULT_GAMMA_TOL_FACTOR) -> float:
    """The Gamma tolerance policy: `rel` times max(diameter, 1), lowered to
    a quarter of the certified `slack_floor` (so no pair the potential
    keeps slack joins Gamma) and raised to 4 `support_residual` (so every
    plan pair stays in)."""
    if not 0 <= rel < np.inf:   # NaN fails too
        raise BadParameter(f"rel must be finite and >= 0, got {rel}")
    tol = rel * max(space.max_distance, 1.0)
    if solution.slack_floor > 0:
        tol = min(tol, solution.slack_floor / 4)
    return max(tol, 4 * solution.support_residual)


def gamma_set(space: MMSpace, solution: W1Solution, tol: float | None = None) -> GammaSet:
    """All pairs with phi(x) - phi(y) >= d(x,y) - tol (diagonal included);
    `tol` defaults to `gamma_tol(space, solution)`. Gamma^-1 is decided in
    the same row pass, which is exact as every space's distances are symmetric.

    Where `saturation_runs` exist and every row of Gamma and Gamma^-1 is one
    run, Gamma is kept as runs (`GammaSet.runs`, `_gamma_runs`) and no bit row
    is packed. Otherwise every row takes the row pass and is packed."""
    if tol is None:
        tol = gamma_tol(space, solution)
    if np.isnan(tol):
        raise BadParameter("Gamma tol must not be NaN")
    if solution.lipschitz_residual > tol:
        raise TolTooSmall(
            f"lipschitz residual {solution.lipschitz_residual} above tol {tol}")
    phi, n = solution.potential, space.n
    fwd = bwd = None
    if (runs := _gamma_runs(space, phi, tol)) is None:
        fwd, bwd = np.empty((2, n, -(-n // 64)), np.uint64)
        for lo, hi, block in space.row_blocks():
            gap = phi[lo:hi, None] - phi[None, :]
            lim = block - tol       # a new array: a matrix space's block is a view of its matrix
            fwd[lo:hi], bwd[lo:hi] = _packed(gap >= lim), _packed(-gap >= lim)
    moving = solution.masses > 0
    i, j = solution.pairs[moving, 0], solution.pairs[moving, 1]
    offdiag = i != j
    if not ((phi[i] - phi[j]) >= (space.dist(i, j) - tol))[offdiag].all():
        raise TolTooSmall(
            "positive-mass plan pair excluded from Gamma at this tol "
            f"(solution.support_residual = {solution.support_residual:g})")
    return GammaSet(fwd, tol, bwd, runs)


def _gamma_runs(space: MMSpace, phi: np.ndarray, tol: float) -> np.ndarray | None:
    """Gamma and Gamma^-1 as runs (`GammaSet.runs`), or None where the space has
    no `saturation_runs` or some row is not one run. Each row lies between a
    certain and a possible run, and only rows with pairs between the two are
    decided, by the row pass."""
    if (ahead := space.saturation_runs(phi, tol)) is None:
        return None
    back = space.saturation_runs(-phi, tol)     # Gamma^-1(phi) is Gamma(-phi)
    runs = np.array([ahead[0], ahead[1], back[0], back[1]])     # the certain runs
    tested = np.flatnonzero((ahead[2] < ahead[0]) | (ahead[1] < ahead[3])
                            | (back[2] < back[0]) | (back[1] < back[3]))
    n = space.n
    for lo, hi, block in space.row_blocks(tested):
        rows = tested[lo:hi]
        gap = phi[rows, None] - phi[None, :]
        lim = block - tol
        for k, inside in enumerate((gap >= lim, -gap >= lim)):
            first, end = inside.argmax(axis=1), n - inside[:, ::-1].argmax(axis=1)
            if (np.count_nonzero(inside, axis=1) != end - first).any():   # each holds its diagonal
                return None
            runs[2 * k:2 * k + 2, rows] = first, end
    return runs


def check_cyclic_monotonicity(space: MMSpace, gamma: GammaSet, k: int = 4,
                              trials: int = 10_000, rng=None) -> dict:
    """Worst violation of the cycle inequality over random k-subsets of Gamma."""
    if not (isinstance(k, (int, np.integer)) and k >= 2):
        raise BadParameter(f"k must be >= 2 (an integer), got {k!r}")
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise BadParameter(f"trials must be >= 1 (an integer), got {trials!r}")
    rng = rng or np.random.default_rng(0)
    if gamma.runs is None:
        i, j = _nonzero_bits(gamma.fwd)     # row-major, as np.argwhere
        offdiag = i != j
        i, j = i[offdiag], j[offdiag]
        count = len(i)

        def pair(idx):
            return i[idx], j[idx]
    else:   # the off-diagonal pairs of row x take the places start[x]:start[x + 1]
        lo, hi = gamma.runs[0], gamma.runs[1]
        start = np.concatenate([[0], np.cumsum(hi - lo - 1)])
        count = int(start[-1])

        def pair(idx):
            x = np.searchsorted(start, idx, side="right") - 1
            y = lo[x] + idx - start[x]
            return x, y + (y >= x)      # skip the diagonal
    if count == 0:
        return {"worst_violation": 0.0, "trials": 0, "k": k, "vacuous": True}
    x, y = pair(rng.integers(0, count, size=(trials, k)))
    matched = space.dist(x, y).sum(axis=1)
    shifted = space.dist(x, np.roll(y, -1, axis=1)).sum(axis=1)
    worst = float((matched - shifted).max())
    return {"worst_violation": worst, "trials": trials, "k": k, "vacuous": False}
