"""Transport-set structure: end points, branching sets, ray partition.

Everything is driven by the saturated pair set Gamma of a solved W1
instance. Pairs at zero distance count as diagonal ("x = y"): they are
the space's `coincident` pairs, so Gamma and R are read as rows, and
distances only along the chains. The branching sets are computed by
their definition: x is forward-branching when two of its
Gamma-successors are not related by R = Gamma u Gamma^-1, that is when
some z in Gamma(x) has Gamma(x) & ~R(z) != 0.

When Gamma is kept as runs (`GammaSet.runs`, sorted coordinates), R(x)
is one run too, and the end points, the branching sets, the components
and the chain test are read from the run ends, with no bit row.

Every other Gamma is read as bit rows packed into 64-bit words. The test
is one AND of Gamma(x) with ~R on the rows of Gamma(x)'s bits and the
words it spans, both read once by the clique cover; it is exact on every
space. Most rows never need that test. x is non-branching exactly when
Gamma(x) is an R-clique, and any subset of an R-clique is one. So the
rows are covered by cliques (`_clique_cover`): visited by popcount,
largest first, a row c that passes the test becomes a head, and every
unvisited y among c's bits whose packed row lies inside c's is
non-branching without a test; rows of at most two bits, {x} or {x, y},
are cliques unvisited. The same cover runs on the rows of R restricted
to T, where a head has no other point of its row at distance 0: every
edge y-w of a row y inside head c's row is replaced by the path y-c-w,
both of whose edges are kept, so the component graph needs only the
rows of heads and of rows that cannot be covered, and its components
are exact.

Components of R restricted to the non-branching transport set T are
accepted as rays only when they are chains totally ordered by phi;
anything else is downgraded to orphan status and reported, never split
heuristically.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .mmspace import MMSpace
from .w1solve import (GammaSet, W1Solution, _bit, _nonzero_bits, _packed, _run_words,
                      _set_bits, _unpacked)


@dataclasses.dataclass(init=False)
class TransportStructure:
    """End points, T_e, the branching sets and T of one Gamma.

    `r` is R = Gamma u Gamma^-1 as bit rows (`_packed`): as given, or, when
    Gamma is kept as runs and none is given, built from them on first read
    and kept."""

    gamma: GammaSet
    initial_points: np.ndarray     # indices with no strict Gamma-predecessor
    final_points: np.ndarray       # indices with no strict Gamma-successor
    transport_set_e: np.ndarray    # T_e
    branching_fwd: np.ndarray      # A+
    branching_bwd: np.ndarray      # A-
    transport_set: np.ndarray      # T = T_e minus (A+ u A-)
    _r: np.ndarray | None

    def __init__(self, gamma, initial_points, final_points, transport_set_e,
                 branching_fwd, branching_bwd, transport_set, r=None):
        self.gamma, self._r = gamma, r
        self.initial_points, self.final_points = initial_points, final_points
        self.transport_set_e, self.transport_set = transport_set_e, transport_set
        self.branching_fwd, self.branching_bwd = branching_fwd, branching_bwd

    @property
    def r(self) -> np.ndarray:
        if self._r is None:
            g = self.gamma
            self._r = g.fwd | g.bwd if g.runs is None else _run_words(*_r_runs(g))
        return self._r

    @property
    def R(self) -> np.ndarray:
        """R as an (n, n) bool array, unpacked afresh on each call; for inspection."""
        return _unpacked(self.r, len(self.r))

    def branching_mass(self, weights: np.ndarray) -> dict:
        te = float(weights[self.transport_set_e].sum())
        br = float(weights[np.union1d(self.branching_fwd, self.branching_bwd)].sum())
        return {
            "mass_Te": te,
            "mass_branching": br,
            "fraction": br / te if te > 0 else 0.0,
        }


@dataclasses.dataclass
class Ray:
    points: np.ndarray     # ordered by decreasing phi
    params: np.ndarray     # signed arclength, increasing along transport
    representative: int    # point index with param 0
    mass: float            # reference m-mass of the ray


@dataclasses.dataclass
class RayDecomposition:
    rays: list[Ray]
    orphan_points: np.ndarray      # points of T on no ray, sorted
    diagnostics: list[str]
    ray_of: np.ndarray             # (n,) ray index of each point, -1 off the rays
    param: np.ndarray              # (n,) arclength on its ray (ray.params), 0 off the rays

    def to_json(self) -> dict:
        return {
            "rays": [
                {
                    "id": k,
                    "points": ray.points.tolist(),
                    "params": ray.params.tolist(),
                    "representative": int(ray.representative),
                    "mass": ray.mass,
                }
                for k, ray in enumerate(self.rays)
            ],
            "orphans": self.orphan_points.tolist(),
            "diagnostics": self.diagnostics,
        }


def _branching(G: np.ndarray, r: np.ndarray, x: int, y: np.ndarray, words: slice) -> bool:
    """Whether some z in G(x) has G(x) & ~R(z) != 0, on packed rows: y holds
    G(x)'s set bits and `words` spans its nonzero words, so one AND is exact."""
    return bool((G[x, words] & ~r[y, words]).any())


def _clique_cover(P: np.ndarray, rows: np.ndarray, may_cover, small=False) -> np.ndarray:
    """Cover `rows` of the square packed bool matrix P by heads.

    Rows are visited by popcount, largest first (ties by position in
    `rows`). A visited row c that fails may_cover(c, y, words), with y its
    set bits and `words` the span of its nonzero words, is left uncovered;
    one that passes becomes a head, and every unvisited row in `rows` among
    y whose bits lie inside P[c] is covered by c and never visited.
    Rows of at most two bits if `small` (which the caller knows pass), else
    empty ones, are heads unvisited unless a visited head covers them.
    Returns cover with cover[c] = c for a head c, cover[y] = c for a row y
    covered by c, and -1 for failed rows and rows not in `rows`."""
    nz = P != 0
    filled = nz.any(axis=1)
    # span of each row's nonzero words; an empty row lies inside every span
    first = np.where(filled, nz.argmax(axis=1), P.shape[1])
    last = np.where(filled, P.shape[1] - 1 - nz[:, ::-1].argmax(axis=1), -1)
    size = np.bitwise_count(P).sum(axis=1, dtype=np.int64)[rows]
    cover = np.full(len(P), -1)
    few = 2 if small else 0     # rows of at most this many bits are not visited
    cover[rows[size <= few]] = rows[size <= few]
    todo = np.zeros(len(P), dtype=bool)
    todo[rows] = True
    for c in rows[np.argsort(-size, kind="stable")[:np.count_nonzero(size > few)]]:
        if not todo[c]:
            continue
        todo[c] = False
        lo, hi = first[c], last[c] + 1
        y = _set_bits(P, c, lo, hi)
        if not may_cover(c, y, slice(lo, hi)):
            continue
        cover[c] = c
        y = y[todo[y]]
        if y.size:
            y = y[(first[y] >= lo) & (last[y] < hi)]
            y = y[~(P[y, lo:hi] & ~P[c, lo:hi]).any(axis=1)]
            cover[y] = c
            todo[y] = False
    return cover


def _has_distinct(P: np.ndarray, space: MMSpace) -> np.ndarray:
    """Whether each bit row x of P holds a y at d(x, y) > 0: its popcount less
    its diagonal bit and the bits of x's coincident pairs."""
    x, (i, j) = np.arange(len(P)), space.coincident
    count = np.bitwise_count(P).sum(axis=1, dtype=np.int64) - _bit(P, x, x)
    np.subtract.at(count, i, _bit(P, i, j))
    return count > 0


def _r_runs(gamma: GammaSet) -> tuple[np.ndarray, np.ndarray]:
    """R(x) = [lo, hi) from Gamma's runs: both runs of row x hold x."""
    lo, hi, blo, bhi = gamma.runs
    return np.minimum(lo, blo), np.maximum(hi, bhi)


def _range_max(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max of v[lo[k]:hi[k]] for each k (lo < hi), from a sparse table of the
    maxima over windows of 2^j entries."""
    table = [v]
    while 2 ** len(table) <= len(v):
        step = 2 ** (len(table) - 1)
        table.append(np.maximum(table[-1][:-step], table[-1][step:]))
    level = np.frexp(hi - lo)[1] - 1       # floor(log2(hi - lo))
    out = np.empty(len(lo), v.dtype)
    for j, row in enumerate(table):
        k = np.flatnonzero(level == j)
        out[k] = np.maximum(row[lo[k]], row[hi[k] - 2 ** j])
    return out


def build_transport_structure(space: MMSpace, gamma: GammaSet) -> TransportStructure:
    """End points, T_e, branching sets and T, straight from the definitions: a
    point has a strict successor (predecessor) when its row of Gamma (Gamma^-1)
    holds a point at positive distance."""
    r = None
    if gamma.runs is not None:
        # a run holds a point at positive distance when it reaches past x's
        # block of equal coordinates. Gamma(x) = [lo, hi) is an R-clique unless
        # some z in it has an R-run that starts after lo: of two points of
        # Gamma(x) that the symmetric R does not relate, the later one's R-run
        # starts after the earlier one.
        t, (lo, hi, blo, bhi) = space.line_coord, gamma.runs
        start, end = np.searchsorted(t, t, "left"), np.searchsorted(t, t, "right")
        has_succ, has_pred = (lo < start) | (hi > end), (blo < start) | (bhi > end)
        te = np.flatnonzero(has_succ | has_pred)
        rlo = _r_runs(gamma)[0]
        a_plus, a_minus = (te[_range_max(rlo, a[te], b[te]) > a[te]]
                           for a, b in ((lo, hi), (blo, bhi)))
    else:
        fwd, bwd = gamma.fwd, gamma.bwd
        has_succ, has_pred = _has_distinct(fwd, space), _has_distinct(bwd, space)
        te = np.flatnonzero(has_succ | has_pred)
        r = fwd | bwd
        small = bool(_bit(fwd, *np.diag_indices(len(fwd))).all())    # rows of two bits are {x, y}

        def branching(G):   # a row covered by a clique is not branching; a failed one is
            cover = _clique_cover(G, te, lambda c, y, words: not _branching(G, r, c, y, words),
                                  small)
            return te[cover[te] < 0]

        a_plus, a_minus = branching(fwd), branching(bwd)
    keep = np.zeros(len(has_succ), bool)
    keep[te] = True
    keep[a_plus] = keep[a_minus] = False
    return TransportStructure(
        gamma=gamma,
        initial_points=np.flatnonzero(~has_pred),
        final_points=np.flatnonzero(~has_succ),
        transport_set_e=te,
        branching_fwd=a_plus,
        branching_bwd=a_minus,
        transport_set=np.flatnonzero(keep),
        r=r,
    )


def _select_representative(space: MMSpace, points: np.ndarray) -> tuple[int, float]:
    """Representative of one ray: its middle point, or of an even-length ray
    the earlier of the two middle points; weight = m-mass.

    On a ray's chain, ordered by non-increasing phi, that is a point whose
    phi is closest to the median phi (on an even-length ray, the one with
    the larger phi), taken by position so that rounding in phi cannot move
    it.
    """
    return int(points[(len(points) - 1) // 2]), float(space.weights[points].sum())


def _run_components(space: MMSpace, T: np.ndarray, rhi: np.ndarray):
    """Components of R restricted to T, less the pairs at distance 0, from R's
    run ends `rhi`: on sorted coordinates the neighbours of x after it are
    the points of T from the end of x's block of coincident points up to
    rhi[x], a range of places in T. Joining x to the first of them and each
    of them to the next keeps every component, so the graph has fewer than
    2 len(T) edges."""
    t = space.line_coord
    first = np.searchsorted(T, np.searchsorted(t, t[T], "right"))
    stop = np.searchsorted(T, rhi[T])
    x = np.flatnonzero(first < stop)
    # place k is joined to k + 1 when some x's range holds both
    cover = np.cumsum(np.bincount(first[x], minlength=len(T))
                      - np.bincount(stop[x] - 1, minlength=len(T)))
    k = np.flatnonzero(cover[:-1] > 0)
    rows, cols = np.concatenate([x, k]), np.concatenate([first[x], k + 1])
    graph = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(T), len(T)))
    return connected_components(graph, directed=False)


def _bit_components(space: MMSpace, structure: TransportStructure):
    """Components of R restricted to T, less the diagonal and the coincident
    pairs (distance 0), from R's bit rows: the graph needs only the rows of
    the clique cover's heads and of rows that cannot be covered."""
    T, n = structure.transport_set, space.n
    in_t = np.zeros((1, n), dtype=bool)
    in_t[0, T] = True
    rt = structure.r & _packed(in_t)
    ci, cj = space.coincident
    duplicate = np.zeros(n, dtype=bool)     # a coincident partner in its row of rt
    duplicate[ci[_bit(rt, ci, cj)]] = True
    cover = _clique_cover(rt, T, lambda c, y, words: not duplicate[c], True)[T]
    keep = np.flatnonzero((cover < 0) | (cover == T))
    pts = T[keep]
    r, c = _nonzero_bits(rt[pts])
    edge = (c != pts[r]) & ~np.isin(pts[r] * n + c, ci * n + cj)
    rows, cols = keep[r[edge]], np.searchsorted(T, c[edge])
    graph = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(T), len(T)))
    return connected_components(graph, directed=False)


def partition_rays(space: MMSpace, structure: TransportStructure,
                   solution: W1Solution) -> RayDecomposition:
    """Rays = chain components of R restricted to T, with arclength params;
    every point's ray index and arclength are recorded in one (n,) array each."""
    T = structure.transport_set
    n = space.n
    phi = solution.potential
    tol = structure.gamma.tol
    diagnostics: list[str] = []
    rays: list[Ray] = []
    ray_of, param = np.full(n, -1), np.zeros(n)
    if len(T) == 0:
        return RayDecomposition(rays, T, diagnostics, ray_of, param)

    if structure.gamma.runs is not None:
        ncomp, labels = _run_components(space, T, _r_runs(structure.gamma)[1])
    else:
        ncomp, labels = _bit_components(space, structure)
    # all chains at once: by component, then by decreasing phi, then by index
    order = np.lexsort((T, -phi[T], labels))
    chains, comp = T[order], labels[order]
    edges = np.searchsorted(comp, np.arange(ncomp + 1))
    a, b = chains[:-1], chains[1:]
    steps = space.dist(a, b)
    if structure.gamma.runs is not None:     # b in a's run of Gamma
        in_gamma = (structure.gamma.runs[0, a] <= b) & (b < structure.gamma.runs[1, a])
    else:
        in_gamma = _bit(structure.gamma.fwd, a, b)
    broken = np.zeros(ncomp, dtype=bool)
    broken[comp[:-1][(comp[:-1] == comp[1:]) & (~in_gamma | (steps <= 0))]] = True
    for k in range(ncomp):
        chain = chains[edges[k]:edges[k + 1]]
        if len(chain) < 2:
            diagnostics.append(f"singleton component at point {int(chain[0])}")
            continue
        if broken[k]:
            diagnostics.append(
                f"NonChainComponent: component of size {len(chain)} not totally "
                f"ordered by phi within tol={tol:g}; orphaned")
            continue
        s = np.concatenate([[0.0], np.cumsum(steps[edges[k]:edges[k + 1] - 1])])
        rep, mass = _select_representative(space, chain)
        ray_of[chain], param[chain] = len(rays), s - s[(len(chain) - 1) // 2]   # rep's place
        rays.append(Ray(points=chain, params=param[chain], representative=rep, mass=mass))
    return RayDecomposition(rays, T[ray_of[T] < 0], diagnostics, ray_of, param)
