"""Finite metric measure spaces and the synthetic model spaces.

A space is a triple (points, metric, weights) with unit total mass. Metrics
come in as dense matrices or as connected weighted graphs (expanded to
shortest-path distances). The interval and sphere generators produce the
model spaces used by the curvature and isoperimetry checks.

A finite sample is never geodesic; the geodesic oracle returns chains of
sample points that are exactly metrically straight (grid/graph spaces) or
just the endpoints (generic dense spaces). `snapped_chain` offers an
approximate chain for sphere samples, with no straightness guarantee.
"""

from __future__ import annotations

import dataclasses
import functools
import json

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
            raise ValueError("grid and values must be 1D arrays of equal length >= 2")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")
        if not self.integral() > 0:
            raise ValueError("density must have positive integral")

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
    `coords` are ambient coordinates for sphere samples, `predecessors`
    the Dijkstra tree for graph spaces, and `density` the generating
    Density1D for interval models. `D` is never changed after
    construction, so `max_distance` and `mesh` are computed once.
    """

    point_ids: list
    D: np.ndarray
    weights: np.ndarray
    kind: str = "matrix"
    line_coord: np.ndarray | None = None
    coords: np.ndarray | None = None
    predecessors: np.ndarray | None = None
    density: Density1D | None = None

    @property
    def n(self) -> int:
        return len(self.point_ids)

    @functools.cached_property
    def max_distance(self) -> float:
        return float(self.D.max())

    @functools.cached_property
    def mesh(self) -> float:
        """Largest nearest-neighbor distance (covering scale of the sample)."""
        if self.n < 2:
            return 0.0
        offdiag = self.D + np.diag(np.full(self.n, np.inf))
        return float(offdiag.min(axis=1).max())

    def index_of(self, point_id) -> int:
        return self.point_ids.index(point_id)

    def chain(self, i: int, j: int) -> list[int]:
        """Ordered sample points on a shortest chain from i to j.

        The returned chain is exactly metrically straight: consecutive leg
        lengths sum to d(i, j). Dense spaces without extra structure get
        the trivial chain [i, j].
        """
        if i == j:
            return [i]
        if self.line_coord is not None:
            t = self.line_coord
            lo, hi = (i, j) if t[i] <= t[j] else (j, i)
            between = np.where((t > t[lo]) & (t < t[hi]))[0]
            ordered = [lo] + list(between[np.argsort(t[between])]) + [hi]
            return ordered if ordered[0] == i else ordered[::-1]
        if self.predecessors is not None:
            path = [j]
            k = j
            while k != i:
                k = int(self.predecessors[i, k])
                if k < 0:
                    raise DisconnectedGraph(f"no path between {i} and {j}")
                path.append(k)
            return path[::-1]
        return [i, j]

    def snapped_chain(self, i: int, j: int) -> list[int]:
        """Approximate chain through sample points near the true geodesic.

        Only meaningful for sphere samples: interpolates the great circle
        and snaps to nearest sample points. Not metrically straight; the
        deviation is mesh-scale and documented as such.
        """
        if self.kind != "sphere2" or self.coords is None:
            return self.chain(i, j)
        if i == j:
            return [i]
        a, b = self.coords[i], self.coords[j]
        ang = self.D[i, j]
        hops = max(2, int(np.ceil(ang / max(self.mesh, 1e-12))))
        ts = np.linspace(0.0, 1.0, hops + 1)
        sin_ang = np.sin(ang)
        if sin_ang < 1e-12:
            return [i, j]
        pts = (np.sin((1 - ts)[:, None] * ang) * a + np.sin(ts[:, None] * ang) * b) / sin_ang
        idx = np.argmax(pts @ self.coords.T, axis=1)
        out = [i]
        for k in idx:
            if k != out[-1] and int(k) != j:
                out.append(int(k))
        out.append(j)
        return out

    def to_spec(self) -> dict:
        return {
            "points": list(self.point_ids),
            "metric": {"type": "matrix", "data": self.D.tolist()},
            "weights": self.weights.tolist(),
        }


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
    if np.any(~np.isfinite(D)):
        raise MetricViolation("metric contains non-finite entries")
    if np.any(np.abs(np.diag(D)) > tol):
        raise MetricViolation("d(x,x) != 0")
    if np.any(D < -tol):
        raise MetricViolation("negative distances")
    if np.abs(D - D.T).max() > tol:
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
        idx = rng.integers(0, n, size=(SAMPLED_TRIPLES, 3))
        viol = D[idx[:, 0], idx[:, 2]] - D[idx[:, 0], idx[:, 1]] - D[idx[:, 1], idx[:, 2]]
        worst = viol.max()
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
    err = np.abs(np.abs(t[:, None] - t[None, :]) - D).max()
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
    predecessors = None
    if kind == "matrix":
        data = metric_spec["data"] if isinstance(metric_spec, dict) else metric_spec
        D = np.asarray(data, dtype=float)
        if D.shape != (n, n):
            raise MetricViolation(f"matrix shape {D.shape} does not match {n} points")
    elif kind == "graph":
        edges = metric_spec["edges"]
        if not edges and n > 1:
            raise DisconnectedGraph("graph with no edges")
        rows, cols, vals = [], [], []
        for i, j, w in edges:
            if w < 0:
                raise MetricViolation("negative edge weight")
            rows += [int(i), int(j)]
            cols += [int(j), int(i)]
            vals += [float(w), float(w)]
        adj = csr_matrix((vals, (rows, cols)), shape=(n, n))
        D, predecessors = shortest_path(
            adj, method="D", directed=False, return_predecessors=True
        )
        if np.any(np.isinf(D)):
            raise DisconnectedGraph("graph is not connected")
    else:
        raise ConfigError(f"unknown metric type {kind!r}")
    D = 0.5 * (D + D.T)
    np.fill_diagonal(D, 0.0)
    _validate_metric(D)
    w = _validate_weights(weights, n)
    space = MMSpace(points, D, w, kind=kind, predecessors=predecessors)
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
    if N < 1:
        raise BadDimension(f"N must be >= 1, got {N}")
    if n < 16:
        raise BadParameter("need n >= 16 grid points")
    if D <= 0:
        raise BadDiameter("D must be positive")
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
    Dmat = np.abs(grid[:, None] - grid[None, :])
    space = MMSpace(list(range(n)), Dmat, masses / masses.sum(), kind="interval",
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
    G = np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))
    np.fill_diagonal(G, 0.0)
    return G


def generate_sphere_sample(n_dim: int, n: int, seed: int = 0) -> MMSpace:
    """n quasi-uniform points on the round S^2 with great-circle metric."""
    if n_dim != 2:
        raise BadDimension("only the round S^2 (n_dim=2) is supported")
    if n < 100:
        raise BadParameter("need n >= 100 sample points")
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
