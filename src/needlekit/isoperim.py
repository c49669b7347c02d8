"""Model isoperimetric profiles, Minkowski content, and Levy-Gromov checks.

The model profile minimizes boundary content over the one-parameter
family of truncated ODE densities [max(J,0)]^{N-1}, J'' + K/(N-1) J = 0
(sin / affine / sinh branches), with half-line candidate sets {t <= r}
and {t >= r}. Restricting the infimum to this family imports the known
characterization of the 1D minimizers; it is not re-derived here.

Empirical profiles are upper bounds obtained from candidate sets (metric
balls and potential sublevels) thresholded to the requested mass; their
boundary measure is a Richardson-extrapolated Minkowski quotient, since
raw quotients at fixed eps systematically overestimate on discrete
spaces. Candidates never hit the mass exactly on atomic spaces; the
attained mass and its defect are recorded and the model is compared at
the attained mass.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BadDiameter, BadDimension, BadVolume, MeshTooCoarse
from .mmspace import MMSpace
from .w1solve import solve_w1


@dataclasses.dataclass(frozen=True)
class ModelProfileSpec:
    K: float
    N: float
    D: float

    def __post_init__(self):
        if self.N < 1:
            raise BadDimension("N must be >= 1")
        if not self.D > 0:
            raise BadDiameter("D must be positive")


@dataclasses.dataclass
class ProfilePoint:
    v: float                 # attained volume fraction
    content: float
    requested_v: float | None = None
    mass_defect: float = 0.0
    candidate: str = ""


QUAD_N = 4096


def _candidate_content(J: np.ndarray, grid: np.ndarray, N: float, v: float) -> float:
    """Best half-line cut content of the truncated density [max(J,0)]^{N-1}."""
    h = np.clip(J, 0.0, None) ** (N - 1.0) if N > 1 else np.ones_like(J)
    cell = 0.5 * np.diff(grid) * (h[:-1] + h[1:])
    mass = cell.sum()
    if mass <= 0:
        return np.inf
    cdf = np.concatenate([[0.0], np.cumsum(cell)]) / mass
    hn = h / mass
    best = np.inf
    for target in (v, 1.0 - v):
        k = np.searchsorted(cdf, target)
        if k == 0 or k >= len(grid):
            val = hn[min(k, len(grid) - 1)]
        else:
            t0, t1 = cdf[k - 1], cdf[k]
            lam = 0.0 if t1 == t0 else (target - t0) / (t1 - t0)
            val = (1 - lam) * hn[k - 1] + lam * hn[k]
        best = min(best, float(val))
    return best


def _profile_objective(spec: ModelProfileSpec, v: float):
    K, N, D = spec.K, spec.N, spec.D
    grid = np.linspace(0.0, D, QUAD_N + 1)
    if K > 0:
        om = np.sqrt(K / (N - 1.0))

        def evaluate(xi):
            return _candidate_content(np.sin(om * grid + xi), grid, N, v)

        lo, hi = -om * D, np.pi
    else:
        om = np.sqrt(-K / (N - 1.0)) if K < 0 else 0.0

        def evaluate(a):
            if K < 0:
                J = np.cos(a) * np.cosh(om * grid) + np.sin(a) * np.sinh(om * grid)
            else:
                J = np.cos(a) + np.sin(a) * grid
            return _candidate_content(J, grid, N, v)

        lo, hi = -np.pi / 2 + 1e-9, np.pi - 1e-9
    return evaluate, lo, hi


def _golden(fun, a, b, iters=60):
    invphi = (np.sqrt(5.0) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def model_profile(spec: ModelProfileSpec, v: float) -> float:
    """Model profile I_{K,N,D}(v): inf of cut content over the ODE family.

    Returns 0 at v in {0, 1}; 0 when K <= 0 and D is infinite (the model
    profile trivializes); for N = 1 the family is the constant densities
    and the value is 1/D. Otherwise the family parameter is scanned at
    128 points and the three best are refined by golden section.
    """
    if not 0.0 <= v <= 1.0:
        raise BadVolume(f"v={v} outside [0, 1]")
    if v in (0.0, 1.0):
        return 0.0
    if not np.isfinite(spec.D):
        if spec.K <= 0:
            return 0.0
        spec = ModelProfileSpec(spec.K, spec.N, np.pi * np.sqrt((spec.N - 1) / spec.K))
    if spec.N == 1:
        return 1.0 / spec.D
    fun, lo, hi = _profile_objective(spec, v)
    params = np.linspace(lo, hi, 128)
    vals = np.array([fun(p) for p in params])
    order = np.argsort(vals)
    best_val = np.inf
    for k in order[:3]:
        a = params[max(k - 1, 0)]
        b = params[min(k + 1, len(params) - 1)]
        best_val = min(best_val, _golden(fun, a, b)[1])
    return float(best_val)


@dataclasses.dataclass
class MinkowskiEstimate:
    value: float
    raw: list[tuple[float, float]]

    def __float__(self):
        return self.value


def default_eps_window(space: MMSpace, k: int = 16) -> np.ndarray:
    """Epsilon ladder for content estimation: a window of mesh multiples.

    Single quotients at mesh-scale epsilon are staircase-noisy on atomic
    spaces, so content is regressed over a window; the window stays below
    a fraction of the diameter to keep the curvature bias second-order.
    """
    m = max(space.mesh, 1e-12)
    hi = min(8.0 * m, max(5.0 * m, 0.12 * space.max_distance))
    hi = max(hi, 2.5 * m)
    return np.linspace(2.0 * m, hi, k)


def minkowski_content(space: MMSpace, set_indicator, eps_list) -> MinkowskiEstimate:
    """Boundary content from the growth of eps-neighborhood masses.

    A^eps uses open balls of the discrete metric; eps_list must be
    resolvable (min eps >= 2 * mesh). The estimate is the least-squares
    slope of eps -> m(A^eps) over the ladder, which extrapolates the
    first-order neighborhood growth while averaging out the staircase
    noise that raw single-eps quotients carry on atomic spaces. The raw
    quotient sequence is returned alongside.
    """
    eps_arr = np.sort(np.asarray([float(e) for e in eps_list]))
    if np.any(eps_arr <= 0):
        raise ValueError("eps values must be positive")
    mesh = space.mesh
    if eps_arr[0] < 2.0 * mesh * (1 - 1e-12):
        raise MeshTooCoarse(f"min eps {eps_arr[0]} below 2*mesh = {2*mesh}")
    A = np.asarray(set_indicator, dtype=bool)
    if A.sum() == 0:
        return MinkowskiEstimate(0.0, [(float(e), 0.0) for e in eps_arr])
    mass_A = space.weights[A].sum()
    dist = space.D[:, A].min(axis=1)
    masses = np.array([space.weights[dist < e].sum() for e in eps_arr])
    raw = [(float(e), float((g - mass_A) / e)) for e, g in zip(eps_arr, masses)]
    if len(eps_arr) >= 2:
        slope = np.polyfit(eps_arr, masses, 1)[0]
        value = float(slope)
    else:
        value = raw[0][1]
    return MinkowskiEstimate(max(value, 0.0), raw)


def _threshold_to_mass(space: MMSpace, score: np.ndarray, v: float):
    order = np.argsort(score, kind="stable")
    cum = np.cumsum(space.weights[order])
    k = int(np.argmin(np.abs(cum - v)))
    mask = np.zeros(space.n, dtype=bool)
    mask[order[: k + 1]] = True
    return mask, float(cum[k])


def empirical_profile(space: MMSpace, v: float, candidate_budget: int = 32,
                      rng=None, include_potential: bool = True) -> ProfilePoint:
    """Upper bound on the isoperimetric profile by candidate search.

    Candidates are sublevel sets of distance functions to random base
    points (metric balls) and of the Kantorovich potential of a random
    zero-mean function, each thresholded to the nearest attainable mass.
    Candidates are ranked with a short eps ladder, then the few best are
    re-estimated on the full ladder: taking a minimum over many noisy
    estimates would bias the profile downward.
    """
    if not 0.0 < v < 1.0:
        raise BadVolume(f"v={v} outside (0, 1)")
    rng = rng or np.random.default_rng(0)
    coarse = default_eps_window(space, 6)
    fine = default_eps_window(space, 16)
    scores = []
    n_pot = 2 if include_potential else 0
    n_balls = max(candidate_budget - n_pot, 1)
    bases = rng.choice(space.n, size=min(n_balls, space.n), replace=False)
    for base in bases:
        scores.append((f"ball@{int(base)}", space.D[int(base)]))
    if include_potential:
        f = rng.normal(size=space.n)
        f -= f @ space.weights
        pos = np.clip(f, 0, None) * space.weights
        neg = np.clip(-f, 0, None) * space.weights
        if pos.sum() > 0 and neg.sum() > 0:
            sol = solve_w1(space, pos / pos.sum(), neg / neg.sum())
            scores.append(("potential+", sol.potential))
            scores.append(("potential-", -sol.potential))
    ranked = []
    for name, score in scores:
        mask, attained = _threshold_to_mass(space, score, v)
        est = minkowski_content(space, mask, coarse)
        ranked.append((est.value, name, mask, attained))
    ranked.sort(key=lambda r: r[0])
    best = None
    for _, name, mask, attained in ranked[:3]:
        est = minkowski_content(space, mask, fine)
        if best is None or est.value < best.content:
            best = ProfilePoint(v=attained, content=est.value, requested_v=v,
                                mass_defect=abs(attained - v), candidate=name)
    return best


def _pmap(fn, items, threads):
    """[fn(x) for x in items], across `threads` worker threads when more than one."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def levy_gromov_check(space: MMSpace, spec: ModelProfileSpec, v_grid,
                      candidate_budget: int = 32, rng=None,
                      include_potential: bool = True,
                      allowance: float | None = None, threads: int = 1) -> dict:
    """Empirical profile against the model profile at the space diameter.

    Passes when every empirical content clears the model value minus the
    discretization allowance (default max(5% of the model, 4 * mesh)).
    Grid points run independently (optionally across `threads` workers)
    on spawned random streams, so results do not depend on ordering.
    """
    rng = rng or np.random.default_rng(0)
    D_used = space.max_distance
    mspec = ModelProfileSpec(spec.K, spec.N, D_used)
    v_grid = list(v_grid)
    streams = rng.spawn(len(v_grid))

    def one(iv):
        i, v = iv
        if v <= 0.0 or v >= 1.0:
            return {"v": float(v), "v_attained": float(v), "empirical": 0.0,
                    "model": 0.0, "slack": 0.0, "allowance": 0.0}
        ep = empirical_profile(space, v, candidate_budget, streams[i],
                               include_potential=include_potential)
        model = model_profile(mspec, ep.v)
        allow = allowance if allowance is not None else max(0.05 * model, 4.0 * space.mesh)
        return {"v": float(v), "v_attained": ep.v, "empirical": ep.content,
                "model": model, "slack": ep.content - model, "allowance": allow,
                "candidate": ep.candidate, "mass_defect": ep.mass_defect}

    rows = _pmap(one, list(enumerate(v_grid)), threads)
    ok = all(r["slack"] >= -r["allowance"] for r in rows)
    return {"verdict": "pass" if ok else "fail", "rows": rows, "D_used": D_used,
            "K": spec.K, "N": spec.N}
