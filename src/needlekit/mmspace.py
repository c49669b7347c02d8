"""Finite metric measure spaces and the synthetic model spaces.

A space is a triple (points, metric, weights) with unit total mass. Metrics
come in as dense matrices or as connected weighted graphs (expanded to
shortest-path distances). The interval and sphere generators produce the
model spaces used by the curvature and isoperimetry checks.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import threading

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import (
    BadDiameter,
    BadDimension,
    BadParameter,
    ConfigError,
    DisconnectedGraph,
    EmptySpace,
    InvalidWeights,
    MetricViolation,
)

REL_TOL = 1e-12
EXHAUSTIVE_TRIPLE_LIMIT = 300
SAMPLED_TRIPLES = 10**6
_ROW_BLOCK = 1 << 15    # entries per block of every row-block pass, sized for a core's cache


def _row_ranges(m, width):
    """(lo, hi) ranges of the rows of an m x width pass, about _ROW_BLOCK entries each."""
    step = max(1, _ROW_BLOCK // max(width, 1))
    return [(lo, min(lo + step, m)) for lo in range(0, m, step)]


def _vector(values, n: int, name: str, dtype=float) -> np.ndarray:
    """`values` as an (n,) array; any other shape is a BadParameter naming it."""
    values = np.asarray(values, dtype=dtype)
    if values.shape != (n,):
        raise BadParameter(f"{name} has shape {values.shape}, expected ({n},)")
    return values


def _check_KN(K: float, N: float, N_min: float) -> None:
    """K finite (else BadParameter), N finite and >= N_min (else BadDimension); NaN fails."""
    if not np.isfinite(K):
        raise BadParameter(f"K must be finite, got {K}")
    if not N_min <= N < np.inf:
        raise BadDimension(f"N must be finite and >= {N_min:g}, got {N}")


@dataclasses.dataclass(frozen=True)
class Density1D:
    """A nonnegative density sampled on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise BadParameter("grid and values must be 1D arrays of equal length >= 2")
        if not np.all(np.diff(grid) > 0):
            raise BadParameter("grid must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise BadParameter("density values must be finite and nonnegative")
        if not self.integral() > 0:
            raise BadParameter("density must have positive integral")

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.grid[0]), float(self.grid[-1])

    def integral(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def __call__(self, t):
        return np.interp(t, self.grid, self.values)


@dataclasses.dataclass
class MMSpace:
    """Finite metric measure space with unit mass.

    `kind` records the construction ("matrix", "graph", "interval",
    "sphere2"); `line_coord` is a 1D isometric embedding when one exists,
    `coords` are ambient coordinates for sphere samples, and `density` the
    generating Density1D for interval models. Distances are read through `rows`,
    `row_blocks`, `triangle_blocks`, `dist` and `pairs_within`: interval models
    compute |t_i - t_j| (`D` is built afresh on each call); other spaces store
    a matrix, never changed.
    """

    point_ids: list
    _matrix: np.ndarray | None
    weights: np.ndarray
    kind: str = "matrix"
    line_coord: np.ndarray | None = None
    coords: np.ndarray | None = None
    density: Density1D | None = None
    _pairs: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)
    _pairs_lock: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.point_ids)

    @property
    def D(self) -> np.ndarray:
        """The n x n distance matrix (built afresh on interval models)."""
        return self._matrix if self._matrix is not None else self.rows(slice(None))

    def rows(self, idx, cols=None, out=None) -> np.ndarray:
        """Distances from the points `idx` (a slice or index array) to `cols`
        (a slice, an index array, or all points), computed into `out` if given;
        on matrix spaces a view of the matrix when both are slices."""
        M, t = self._matrix, self.line_coord
        cols = slice(None) if cols is None else cols
        if M is None:
            diff = np.subtract(t[idx, None], t[None, cols], out=out)
            return np.abs(diff, out=diff)
        return M[idx, cols] if isinstance(cols, slice) else M[np.ix_(np.arange(self.n)[idx], cols)]

    def row_blocks(self, idx=None, cols=None):
        """Yield (lo, hi, rows(idx[lo:hi], cols)) (idx: all points) in blocks of
        about _ROW_BLOCK entries. Interval models reuse one buffer: a block is
        valid until the next one is yielded."""
        m = self.n if idx is None else len(idx)
        width = self.n if cols is None else len(cols)
        ranges = _row_ranges(m, width)
        buf = np.empty((ranges[0][1], width)) if self._matrix is None and ranges else None
        for lo, hi in ranges:
            out = None if buf is None else buf[:hi - lo]
            yield lo, hi, self.rows(slice(lo, hi) if idx is None else idx[lo:hi], cols, out)

    def triangle_blocks(self):
        """Yield (lo, hi, rows(slice(lo, hi), slice(lo, n))): every pair x <= y
        once, plus the lower half of each diagonal block, in blocks of about
        _ROW_BLOCK entries (at most max(_ROW_BLOCK, n)). Matrix spaces yield views."""
        n, lo = self.n, 0
        while lo < n:
            hi = min(lo + max(1, _ROW_BLOCK // (n - lo)), n)
            yield lo, hi, self.rows(slice(lo, hi), slice(lo, n))
            lo = hi

    def dist(self, i, j) -> np.ndarray:
        """d(i, j) elementwise, for broadcastable index arrays."""
        t = self.line_coord
        return self._matrix[i, j] if self._matrix is not None else np.abs(t[i] - t[j])

    def saturation_runs(self, phi, tol):
        """Runs of the pairs with phi(x) - phi(y) >= d(x, y) - tol on coordinates
        sorted nondecreasing: per row x, every y in [lo_in[x], hi_in[x]) is in
        and every y outside [lo_out[x], hi_out[x]) is out, as four arrays;
        None on other spaces, for tol < 0 and for non-finite phi.

        For y >= x the test reads b(y) <= b(x) + tol with b = t + phi, for
        y <= x it reads c(y) >= c(x) - tol with c = t - phi, and both b and c
        are nondecreasing when phi is 1-Lipschitz. The runs come from the
        prefix max and suffix min of b and c, which bound them for any phi,
        widened against rounding by delta = 64 eps (max|phi| + max|t| + tol)
        (an infinite tol left out)."""
        t = self.line_coord
        if self._matrix is not None or not tol >= 0 or not (t[1:] >= t[:-1]).all():
            return None
        if not (np.isfinite(b := t + phi).all() and np.isfinite(c := t - phi).all()):
            return None
        delta = 64 * np.finfo(float).eps * (np.abs(phi).max() + np.abs(t).max()
                                            + (tol if tol < np.inf else 0.0))
        prefix_max = np.maximum.accumulate
        suffix_min = lambda v: np.minimum.accumulate(v[::-1])[::-1]
        lo_in = np.searchsorted(suffix_min(c), c - (tol - delta), "left")
        hi_in = np.searchsorted(prefix_max(b), b + (tol - delta), "right")
        lo_out = np.searchsorted(prefix_max(c), c - (tol + delta), "left")
        hi_out = np.searchsorted(suffix_min(b), b + (tol + delta), "right")
        x = np.arange(self.n)
        empty = (lo_in > x) | (hi_in <= x)      # the certain run must hold x
        return np.where(empty, x, lo_in), np.where(empty, x, hi_in), lo_out, hi_out

    def lipschitz_bound(self, phi):
        """An upper bound on max(0, max |phi(x) - phi(y)| - d(x, y)) for a finite
        phi, None on matrix spaces: with s the coordinates sorted and shifted to
        start at 0, a pair y after x reads b(x) - b(y) or c(x) - c(y) for b = s + phi,
        c = s - phi, so the bound is max(v - suffix_min(v)) over v = b, c plus a
        rounding margin 8 eps (max|phi| + diameter), which the shift keeps offset-free."""
        if self._matrix is None:
            order = np.argsort(self.line_coord, kind="stable")
            s, p = self.line_coord[order] - self.line_coord[order[0]], phi[order]
            lip = max(float((v - np.minimum.accumulate(v[::-1])[::-1]).max())
                      for v in (s + p, s - p))
            return lip + 8 * np.finfo(float).eps * (np.abs(phi).max() + s[-1])

    def pairs_within(self, R: float) -> tuple:
        """The pairs at distance below R as CSR (indptr, int32 columns, exact
        distances), built by `_pairs_graph`. The graph of the last R asked for
        is kept for the next call with that R (threads share one build).
        The zero diagonal keeps every row non-empty for R > 0, which
        `np.minimum.reduceat` over indptr needs."""
        with self._pairs_lock:
            if self._pairs is None or self._pairs[0] != R:
                self._pairs = R, self._pairs_graph(R)
            return self._pairs[1]

    def _pairs_graph(self, R: float) -> tuple:
        """`pairs_within`'s graph by row blocks, or on sorted coordinates by
        bisection for each row's run of pairs about x on the same test."""
        t, n = self.line_coord, self.n
        if self._matrix is not None or not (t[1:] >= t[:-1]).all():
            indptr, cols, data = [np.zeros(1, np.int64)], [], []
            for lo, hi, block in self.row_blocks():
                near = block < R
                indptr.append(indptr[-1][-1] + np.cumsum(near.sum(axis=1)))
                cols.append(np.nonzero(near)[1].astype(np.int32))
                data.append(block[near])
            return np.concatenate(indptr), np.concatenate(cols), np.concatenate(data)
        x = np.arange(n)

        def first_out(inside, a, b):    # per row, the first y in [a, b) where inside(y) fails
            for step in [1 << k for k in range(n.bit_length())][::-1]:    # it holds on a prefix
                ok = (a + step <= b) & inside(np.minimum(a + step - 1, n - 1))
                a = np.where(ok, a + step, a)
            return a
        # the rounded |t_x - t_y| is monotone on each side of x
        lo = first_out(lambda y: np.abs(t[x] - t[y]) >= R, np.zeros(n, np.int64), x)
        count = first_out(lambda y: np.abs(t[x] - t[y]) < R, x, np.full(n, n)) - lo
        indptr = np.concatenate([[0], np.cumsum(count)])
        cols = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - lo, count)
        return indptr, cols.astype(np.int32), np.abs(t[np.repeat(x, count)] - t[cols])

    @functools.cached_property
    def max_distance(self) -> float:
        if self._matrix is None:     # float subtraction is monotone: the ends are farthest
            return float(self.line_coord.max() - self.line_coord.min())
        return float(self._matrix.max())

    @functools.cached_property
    def nearest(self) -> np.ndarray:
        """Each point's nearest-neighbor distance (inf for a lone point). Only
        points with nearest <= 0 can have coincident partners (`coincident`)."""
        if self._matrix is None:     # each point's nearest neighbour is adjacent in order
            order = np.argsort(self.line_coord, kind="stable")
            gaps = np.diff(self.line_coord[order])
            near = np.empty(self.n)
            near[order] = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
            return near
        near = np.empty(self.n)
        for lo, hi, block in self.row_blocks():
            off = block.copy()      # the stored matrix is never changed
            off[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
            near[lo:hi] = off.min(axis=1)
        return near

    @functools.cached_property
    def coincident(self) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j), i != j, at distance <= 0, as two index arrays in
        row-major order; only the rows of points with `nearest` <= 0 are read."""
        z = np.flatnonzero(self.nearest <= 0)
        i, j = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)]
        for lo, hi, block in self.row_blocks(z, z):
            r, c = np.nonzero(block <= 0)
            i.append(z[lo + r])
            j.append(z[c])
        i, j = np.concatenate(i), np.concatenate(j)
        return i[i != j], j[i != j]

    @functools.cached_property
    def mesh(self) -> float:
        """Largest nearest-neighbor distance (covering scale of the sample)."""
        return float(self.nearest.max()) if self.n >= 2 else 0.0

    def index_of(self, point_id) -> int:
        return self.point_ids.index(point_id)


def _validate_weights(weights, n) -> np.ndarray:
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise InvalidWeights(f"expected {n} weights, got shape {w.shape}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidWeights("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise InvalidWeights("weights must have positive total mass")
        w = w / total
    return w


def _validate_metric(D: np.ndarray, rng: np.random.Generator | None = None):
    n = D.shape[0]
    scale = max(D.max(), 1.0)
    tol = REL_TOL * scale
    blocks = _row_ranges(n, n)
    if not all(np.isfinite(D[lo:hi]).all() for lo, hi in blocks):
        raise MetricViolation("metric contains non-finite entries")
    if np.any(np.abs(np.diag(D)) > tol):
        raise MetricViolation("d(x,x) != 0")
    if any((D[lo:hi] < -tol).any() for lo, hi in blocks):
        raise MetricViolation("negative distances")
    if max(np.abs(D[lo:hi] - D[:, lo:hi].T).max() for lo, hi in blocks) > tol:
        raise MetricViolation("metric is not symmetric")
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        for k in range(n):
            worst = (D - (D[:, k:k + 1] + D[k:k + 1, :])).max()
            if worst > tol:
                raise MetricViolation(
                    f"triangle inequality fails through point {k} by {worst:.3e}"
                )
    else:
        rng = rng or np.random.default_rng(0)
        worst, flat = -np.inf, D.ravel()    # flat takes: faster than D[x, z]
        for lo, hi in _row_ranges(SAMPLED_TRIPLES, 3):
            x, y, z = rng.integers(0, n, size=(hi - lo, 3)).T
            viol = flat.take(x * n + z) - flat.take(x * n + y) - flat.take(y * n + z)
            worst = max(worst, viol.max())
        if worst > tol:
            raise MetricViolation(f"triangle inequality fails on sampled triple by {worst:.3e}")


def _detect_line(D: np.ndarray) -> np.ndarray | None:
    """Return a 1D isometric embedding of the metric, or None.

    The tolerance only needs to absorb sqrt roundoff of genuinely
    collinear coordinates; near-1D metrics must not take the 1D solver
    path, whose certificates assume exact line geometry.
    """
    a = int(np.argmax(D[0]))
    t = D[a]
    err = max(np.abs(np.abs(t[lo:hi, None] - t[None, :]) - D[lo:hi]).max()
              for lo, hi in _row_ranges(len(D), len(D)))
    if err <= 1e-13 * max(D.max(), 1.0):
        return t
    return None


def build_space(points, metric_spec, weights=None) -> MMSpace:
    """Validated MMSpace from a dense matrix or connected weighted graph."""
    points = list(points)
    n = len(points)
    if n == 0:
        raise EmptySpace("no points")
    kind = metric_spec.get("type", "matrix") if isinstance(metric_spec, dict) else "matrix"
    if kind == "matrix":
        data = metric_spec["data"] if isinstance(metric_spec, dict) else metric_spec
        D = np.asarray(data, dtype=float)
        if D.shape != (n, n):
            raise MetricViolation(f"matrix shape {D.shape} does not match {n} points")
    elif kind == "graph":
        edges = metric_spec["edges"]
        if not edges and n > 1:
            raise DisconnectedGraph("graph with no edges")
        least = {}      # per unordered pair; a self-loop is on no shortest path
        for i, j, w in edges:
            if not (float(i).is_integer() and float(j).is_integer()):
                raise MetricViolation(f"edge ({i}, {j}, {float(w):g}): endpoints must be integers")
            i, j, w = int(i), int(j), float(w)
            if not (0 <= i < n and 0 <= j < n):
                raise MetricViolation(f"edge ({i}, {j}, {w:g}): endpoint outside 0..{n - 1}")
            if not 0 <= w < np.inf:
                raise MetricViolation(f"edge ({i}, {j}, {w:g}): weight must be finite and >= 0")
            if i != j:
                key = min(i, j), max(i, j)
                least[key] = min(w, least.get(key, np.inf))
        i, j = np.array(list(least), dtype=int).reshape(-1, 2).T
        w = np.array(list(least.values()))
        adj = csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n))
        D = shortest_path(adj, method="D", directed=False)
        if np.any(np.isinf(D)):
            raise DisconnectedGraph("graph is not connected")
    else:
        raise ConfigError(f"unknown metric type {kind!r}")
    _validate_metric(D)
    D = 0.5 * (D + D.T)     # exact symmetry and zero diagonal for what validation let through
    np.fill_diagonal(D, 0.0)
    w = _validate_weights(weights, n)
    space = MMSpace(points, D, w, kind=kind)
    if kind == "matrix" and n >= 2:
        space.line_coord = _detect_line(D)
    return space


def model_density(K: float, N: float, D: float, n: int) -> Density1D:
    """Equality-case density of (h^{1/(N-1)})'' + K/(N-1) h^{1/(N-1)} = 0 on [0, D]."""
    grid = np.linspace(0.0, D, n)
    if N == 1:
        vals = np.ones_like(grid)
    elif K > 0:
        om = np.sqrt(K / (N - 1))
        vals = np.sin(om * grid) ** (N - 1)
        if abs(om * D - np.pi) <= 1e-12 * np.pi:
            vals[-1] = 0.0      # sin(pi) rounds to 1.2e-16, not the model's zero
    elif K == 0:
        vals = np.ones_like(grid)
    else:
        om = np.sqrt(-K / (N - 1))
        vals = np.sinh(om * grid) ** (N - 1)
        vals[0] = 0.0
    return Density1D(grid, vals)


def generate_interval_model(K: float, N: float, D: float, n: int) -> tuple[MMSpace, Density1D]:
    """Interval model space: uniform grid on [0, D], weights = trapezoid masses."""
    _check_KN(K, N, 1)
    if not (isinstance(n, (int, np.integer)) and n >= 16):
        raise BadParameter(f"need an integer n >= 16 grid points, got {n!r}")
    if not 0 < D < np.inf:
        raise BadDiameter("D must be finite and positive")
    if K > 0:
        dmax = np.pi * np.sqrt((N - 1) / K)
        if D > dmax * (1 + 1e-12):
            raise BadDiameter(f"D={D} exceeds Bonnet-Myers bound {dmax}")
    dens = model_density(K, N, D, n)
    grid, vals = dens.grid, dens.values
    dt = np.diff(grid)
    masses = np.zeros(n)
    cell = 0.5 * dt * (vals[:-1] + vals[1:])
    masses[:-1] += 0.5 * cell
    masses[1:] += 0.5 * cell
    space = MMSpace(list(range(n)), None, masses / masses.sum(), kind="interval",
                    line_coord=grid.copy(), density=dens)
    return space, dens


def fibonacci_sphere(n: int, seed: int = 0) -> np.ndarray:
    """Quasi-uniform unit vectors on S^2: Fibonacci lattice plus seeded
    Gaussian jitter of scale 1e-4."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    pts = pts + 1e-4 * np.random.default_rng(seed).normal(size=pts.shape)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def great_circle_matrix(pts: np.ndarray) -> np.ndarray:
    G = pts @ pts.T
    np.arccos(np.clip(G, -1.0, 1.0, out=G), out=G)
    np.fill_diagonal(G, 0.0)
    return G


def generate_sphere_sample(n_dim: int, n: int, seed: int = 0) -> MMSpace:
    """n quasi-uniform points on the round S^2 with great-circle metric."""
    if n_dim != 2:
        raise BadDimension("only the round S^2 (n_dim=2) is supported")
    if not (isinstance(n, (int, np.integer)) and n >= 100):
        raise BadParameter(f"need an integer n >= 100 sample points, got {n!r}")
    pts = fibonacci_sphere(n, seed=seed)
    D = great_circle_matrix(pts)
    _validate_metric(D, rng=np.random.default_rng(seed + 1))
    return MMSpace(list(range(n)), D, np.full(n, 1.0 / n), kind="sphere2", coords=pts)


def from_spec(spec: dict) -> MMSpace:
    """Build a space from the space-spec JSON dialect."""
    metric = spec.get("metric")
    if metric is None:
        raise ConfigError("space spec needs a 'metric' entry")
    mtype = metric.get("type")
    if mtype in ("matrix", "graph"):
        points = spec.get("points")
        if points is None:
            size = len(metric["data"]) if mtype == "matrix" else (
                1 + max(max(int(e[0]), int(e[1])) for e in metric["edges"]))
            points = list(range(size))
        return build_space(points, metric, spec.get("weights"))
    if mtype == "interval":
        space, _ = generate_interval_model(
            float(metric["K"]), float(metric["N"]), float(metric["D"]), int(metric["n"]))
        return space
    if mtype == "sphere2":
        return generate_sphere_sample(2, int(metric["n"]), int(metric.get("seed", 0)))
    raise ConfigError(f"unknown metric type {mtype!r}")


def load_spec(path) -> MMSpace:
    with open(path) as fh:
        return from_spec(json.load(fh))
