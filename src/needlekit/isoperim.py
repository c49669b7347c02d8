"""Model isoperimetric profiles, Minkowski content, and Levy-Gromov checks.

The model profile minimizes boundary content over the one-parameter
family of truncated ODE densities [max(J,0)]^{N-1}, J'' + K/(N-1) J = 0
(J = cos(p) X + sin(p) Y on a basis X, Y tabulated once per value),
with half-line candidate sets {t <= r} and {t >= r}. Restricting the
infimum to this family imports the known characterization of the 1D
minimizers; it is not re-derived here.

Empirical profiles are estimates obtained from candidate sets (metric
balls about random centres) thresholded to the requested mass; their
boundary measure is a Richardson-extrapolated Minkowski quotient, since
raw quotients at fixed eps systematically overestimate on discrete
spaces. They are not upper bounds: the eps window carries a first-order
curvature bias, which the Levy-Gromov allowance absorbs. Candidates
never hit the mass exactly on atomic spaces; the attained mass and its
defect are recorded and the model is compared at the attained mass.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadDiameter, BadParameter, BadVolume, MeshTooCoarse
from .mmspace import MMSpace, _check_KN, _vector


@dataclasses.dataclass(frozen=True)
class ModelProfileSpec:
    K: float
    N: float
    D: float

    def __post_init__(self):
        _check_KN(self.K, self.N, 1)
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
FLAT_OMEGA_D = 1e-6     # below this w*D a K > 0 model is the K = 0 one to O((w D)^2)


def _profile_family(spec: ModelProfileSpec):
    """(member, cut, lo, hi): member(p) is (h, cdf, mass) of [max(J_p, 0)]^{N-1} on [0, D],
    J_p = cos(p) X + sin(p) Y for p in [lo, hi], in buffers the next call overwrites;
    cut(v, *member(p)) is its best half-line cut content at mass v. The grid and the basis
    are tabulated once per spec: X, Y = sin wt, cos wt for K > 0 (the angle-addition form
    of sin(wt + p)); cosh wt, sinh wt for K < 0; 1, t for K = 0."""
    K, N, D = spec.K, spec.N, spec.D
    grid = np.linspace(0.0, D, QUAD_N + 1)
    half = 0.5 * np.diff(grid)
    if K > 0:
        om = np.sqrt(K / (N - 1.0))
        X, Y = np.sin(om * grid), np.cos(om * grid)
        lo, hi = -om * D, np.pi
    else:
        om = np.sqrt(-K / (N - 1.0)) if K < 0 else 0.0
        X, Y = (np.cosh(om * grid), np.sinh(om * grid)) if K < 0 else (np.ones_like(grid), grid)
        lo, hi = -np.pi / 2 + 1e-9, np.pi - 1e-9
    J, sY, cell, cdf = np.empty_like(grid), np.empty_like(grid), np.empty_like(half), np.zeros_like(grid)

    def member(p):
        np.multiply(np.cos(p), X, out=J)
        np.add(J, np.multiply(np.sin(p), Y, out=sY), out=J)
        h = np.clip(J, 0.0, None, out=J)
        h **= N - 1.0
        np.multiply(half, np.add(h[:-1], h[1:], out=cell), out=cell)
        mass = cell.sum()
        if mass > 0:
            np.divide(np.cumsum(cell, out=cdf[1:]), mass, out=cdf[1:])
        return h, cdf, mass

    def cut(v, h, cdf, mass):
        if mass <= 0:
            return np.inf
        best = np.inf
        for target in (v, 1.0 - v):
            k = cdf.searchsorted(target)
            if k == 0 or k > QUAD_N:
                val = h[min(k, QUAD_N)] / mass
            else:
                t0, t1 = cdf[k - 1], cdf[k]
                lam = 0.0 if t1 == t0 else (target - t0) / (t1 - t0)
                val = (1 - lam) * (h[k - 1] / mass) + lam * (h[k] / mass)
            best = min(best, float(val))
        return best

    return member, cut, lo, hi


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

    Returns 0 at v in {0, 1}. For K > 0 and N > 1, D is clamped to the
    Bonnet-Myers diameter pi*sqrt((N-1)/K): a longer window would hold
    several humps of sin, whose zeros give cuts of content 0. Below
    w*D = FLAT_OMEGA_D (w = sqrt(K/(N-1))) the K = 0 family is used: the
    sin basis can no longer resolve the members that vanish inside [0, D],
    and the two models differ by O((w D)^2), about 1e-12. Otherwise
    an infinite D gives 0 (the profile trivializes); for N = 1 the family
    is the constant densities and the value is 1/D. Otherwise the family
    parameter is scanned at 128 points and the three best are refined by
    golden section, all on one tabulated basis (`_profile_family`); a
    Levy-Gromov check shares one scan among its volumes (`_model_profiles`).
    """
    return _model_profiles(spec, [v])[0]


def _model_profiles(spec: ModelProfileSpec, vs) -> list[float]:
    """[model_profile(spec, v) for v in vs]: each of the 128 scanned members is
    tabulated once and cut at every volume; the golden sections run per volume."""
    for v in vs:
        if not 0.0 <= v <= 1.0:
            raise BadVolume(f"v={v} outside [0, 1]")
    inner = list(dict.fromkeys(v for v in vs if v not in (0.0, 1.0)))
    if spec.K > 0 and spec.N > 1:     # Bonnet-Myers: no CD(K, N) model is longer
        D = min(spec.D, np.pi * np.sqrt((spec.N - 1) / spec.K))
        flat = np.sqrt(spec.K / (spec.N - 1)) * D < FLAT_OMEGA_D
        spec = ModelProfileSpec(0.0 if flat else spec.K, spec.N, D)
    elif not np.isfinite(spec.D):
        inner = []
    if spec.N == 1 or not inner:
        return [1.0 / spec.D if v in inner else 0.0 for v in vs]
    member, cut, lo, hi = _profile_family(spec)
    params = np.linspace(lo, hi, 128)
    vals = np.empty((len(inner), len(params)))
    for k, p in enumerate(params):
        m = member(p)
        vals[:, k] = [cut(v, *m) for v in inner]
    best = dict.fromkeys(inner, np.inf)
    for v, row in zip(inner, vals):
        for k in np.argsort(row)[:3]:
            a = params[max(k - 1, 0)]
            b = params[min(k + 1, len(params) - 1)]
            best[v] = min(best[v], _golden(lambda p: cut(v, *member(p)), a, b)[1])
    return [float(best.get(v, 0.0)) for v in vs]


@dataclasses.dataclass
class MinkowskiEstimate:
    value: float
    raw: list[tuple[float, float]]


def default_eps_window(space: MMSpace, k: int = 16) -> np.ndarray:
    """Epsilon ladder for content estimation: a window of mesh multiples.

    Single quotients at mesh-scale epsilon are staircase-noisy on atomic
    spaces, so content is regressed over a window; the window stays below
    a fraction of the diameter to keep the curvature bias second-order.
    """
    m = max(space.mesh, 1e-12)
    hi = min(8.0 * m, max(5.0 * m, 0.12 * space.max_distance))
    return np.linspace(2.0 * m, hi, k)


def minkowski_content(space: MMSpace, set_indicator, eps_list) -> MinkowskiEstimate:
    """Boundary content from the growth of eps-neighborhood masses.

    A^eps uses open balls of the discrete metric; eps_list must be
    resolvable (min eps >= 2 * mesh). The estimate is the least-squares
    slope of eps -> m(A^eps) over the ladder, which extrapolates the
    first-order neighborhood growth while averaging out the staircase
    noise that raw single-eps quotients carry on atomic spaces. The raw
    quotient sequence is returned alongside. The neighbourhoods are read
    off the pairs of points within the largest eps (`space.pairs_within`,
    kept on the space for the next call with the same largest eps), so
    the cost follows the number of such pairs, not n * |A|.
    """
    eps_arr = np.sort(np.asarray([float(e) for e in eps_list]))
    if eps_arr.size == 0:
        raise BadParameter("eps list must be nonempty")
    if not np.all((eps_arr > 0) & np.isfinite(eps_arr)):
        raise BadParameter("eps values must be positive and finite")
    mesh = space.mesh
    if eps_arr[0] < 2.0 * mesh * (1 - 1e-12):
        raise MeshTooCoarse(f"min eps {eps_arr[0]} below 2*mesh = {2*mesh}")
    A = _vector(set_indicator, space.n, "set indicator", bool)
    if A.sum() == 0:
        return MinkowskiEstimate(0.0, [(float(e), 0.0) for e in eps_arr])
    mass_A = space.weights[A].sum()
    indptr, cols, data = space.pairs_within(eps_arr[-1])
    dist = np.minimum.reduceat(np.where(A.take(cols), data, np.inf), indptr[:-1])
    masses = np.array([space.weights[dist < e].sum() for e in eps_arr])
    raw = [(float(e), float((g - mass_A) / e)) for e, g in zip(eps_arr, masses)]
    value = float(np.polyfit(eps_arr, masses, 1)[0]) if len(eps_arr) >= 2 else raw[0][1]
    return MinkowskiEstimate(max(value, 0.0), raw)


def _threshold_to_mass(space: MMSpace, score: np.ndarray, v: float):
    order = np.argsort(score, kind="stable")
    cum = np.cumsum(space.weights[order])
    k = int(np.argmin(np.abs(cum - v)))
    mask = np.zeros(space.n, dtype=bool)
    mask[order[: k + 1]] = True
    return mask, float(cum[k])


def zero_mean_split(space: MMSpace, rng):
    """(f+ m, f- m), each normalized, for a standard normal f centred to
    m-mean zero; None when either part is zero (as on a one-point space)."""
    f = rng.normal(size=space.n)
    f -= f @ space.weights
    pos = np.clip(f, 0, None) * space.weights
    neg = np.clip(-f, 0, None) * space.weights
    if not (pos.sum() > 0 and neg.sum() > 0):
        return None
    return pos / pos.sum(), neg / neg.sum()


def _check_budget(candidate_budget) -> None:
    if (isinstance(candidate_budget, bool) or not isinstance(candidate_budget, (int, np.integer))
            or candidate_budget < 1):
        raise BadParameter(f"candidate_budget must be an integer >= 1, got {candidate_budget!r}")


def empirical_profile(space: MMSpace, v: float, candidate_budget: int = 32,
                      rng=None) -> ProfilePoint:
    """Estimate of the isoperimetric profile by candidate search; it
    carries the eps window's curvature bias (see the module docstring).

    Candidates are metric balls about `candidate_budget` distinct random
    centres (all points when there are fewer), each thresholded to the
    nearest attainable mass. Candidates are ranked with a short eps
    ladder, then the few best are re-estimated on the full ladder: taking
    a minimum over many noisy estimates would bias the profile downward.
    Both ladders end at the same eps, so every content reads one pair
    graph of the space.
    """
    if not 0.0 < v < 1.0:
        raise BadVolume(f"v={v} outside (0, 1)")
    _check_budget(candidate_budget)
    rng = rng or np.random.default_rng(0)
    coarse = default_eps_window(space, 6)
    fine = default_eps_window(space, 16)
    centres = rng.choice(space.n, size=min(candidate_budget, space.n), replace=False)
    ranked = []
    for c in centres:
        mask, attained = _threshold_to_mass(space, space.rows([int(c)])[0], v)
        est = minkowski_content(space, mask, coarse)
        ranked.append((est.value, f"ball@{int(c)}", mask, attained))
    ranked.sort(key=lambda r: r[0])
    best = None
    for _, name, mask, attained in ranked[:3]:
        est = minkowski_content(space, mask, fine)
        if best is None or est.value < best.content:
            best = ProfilePoint(v=attained, content=est.value, requested_v=v,
                                mass_defect=abs(attained - v), candidate=name)
    return best


def empirical_profiles(space: MMSpace, v_grid, rng=None,
                       candidate_budget: int = 32) -> list[ProfilePoint]:
    """`empirical_profile` at each volume of `v_grid`, the i-th on the i-th
    stream spawned from `rng`, so the points do not depend on the order the
    volumes run in, and no two seeds share a stream. v in {0, 1} gives the
    trivial point (content 0, candidate "")."""
    rng = rng or np.random.default_rng(0)
    v_grid = list(v_grid)
    if not v_grid:
        raise BadVolume("empty volume grid")
    for v in v_grid:
        if not 0.0 <= v <= 1.0:
            raise BadVolume(f"v={v} outside [0, 1]")
    _check_budget(candidate_budget)
    points = []
    for v, stream in zip(v_grid, rng.spawn(len(v_grid))):
        if v in (0.0, 1.0):
            points.append(ProfilePoint(v=float(v), content=0.0, requested_v=float(v)))
        else:
            points.append(empirical_profile(space, v, candidate_budget, stream))
    return points


def levy_gromov_check(space: MMSpace, spec: ModelProfileSpec, v_grid,
                      candidate_budget: int = 32, rng=None,
                      include_potential: bool = True,
                      allowance: float | None = None) -> dict:
    """Empirical profiles (`empirical_profiles`) against the model profile
    I_{K,N,D} of `spec` (`spec.D` is reported as `D_used`; it must be
    finite, since an unbounded model reads 0 and any space would pass).

    Passes when every empirical content clears the model value minus the
    discretization allowance (finite and >= 0; default max(5% of the
    model, 4 * mesh); 0 at the trivial volumes 0 and 1).
    `include_potential` is not read: candidates are metric balls only, and
    it stays in the signature for callers that pass it.
    """
    if not np.isfinite(spec.D):
        raise BadDiameter(f"D must be finite, got {spec.D}")
    if allowance is not None and not 0 <= allowance < np.inf:   # NaN fails too
        raise BadParameter(f"allowance must be finite and >= 0, got {allowance}")
    rows = []
    points = empirical_profiles(space, v_grid, rng, candidate_budget)
    for p, model in zip(points, _model_profiles(spec, [p.v for p in points])):
        if p.requested_v in (0.0, 1.0):
            allow = 0.0
        else:
            allow = allowance if allowance is not None else max(0.05 * model, 4.0 * space.mesh)
        rows.append({"v": float(p.requested_v), "v_attained": p.v, "empirical": p.content,
                     "model": model, "slack": p.content - model, "allowance": allow,
                     "candidate": p.candidate, "mass_defect": p.mass_defect})
    ok = all(r["slack"] >= -r["allowance"] for r in rows)
    return {"verdict": "pass" if ok else "fail", "rows": rows, "D_used": spec.D,
            "K": spec.K, "N": spec.N}
