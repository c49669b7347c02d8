"""Distortion coefficients and one-dimensional CD(K,N)/MCP density verdicts.

sigma implements the four-case comparison coefficient (sin / affine / sinh
branches, +infinity past the Bonnet-Myers threshold); tau is its
dimension-weighted companion. The CD check evaluates the synthetic
concavity inequality for h^{1/(N-1)} on sampled triples (t0, t1, s); the
MCP check evaluates the two-sided sine-ratio bounds on sampled quadruples
(sigma-, s, tau, sigma+). Midpoints off the grid interpolate h^{1/(N-1)}
linearly, never h itself: interpolating the concave profile can only
produce false fails, not false passes.

Convention: a coefficient of +infinity multiplying a vanishing density
value contributes zero (the limit value of the model densities); an
infinite coefficient against positive density is reported as a
fail-with-reason, the domain being too long for the claimed curvature.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BadDimension, BadParameter, DegenerateDensity
from .mmspace import Density1D, _check_KN


@dataclasses.dataclass
class CDReport:
    verdict: bool
    margin: float
    worst_triple: tuple | None
    n_checked: int
    rel_tol: float
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "margin": self.margin,
            "worst_triple": list(self.worst_triple) if self.worst_triple else None,
            "n_checked": self.n_checked,
            "rel_tol": self.rel_tol,
            "reason": self.reason,
        }


def sigma(K: float, N: float, t, theta):
    """Distortion coefficient sigma_{K,N}^{(t)}(theta), extended-real valued.

    Cases: +inf when K theta^2 >= N pi^2; sin ratio for 0 < K theta^2 <
    N pi^2; t when K theta^2 = 0 (or K theta^2 < 0 with N = 0); sinh
    ratio when K theta^2 < 0 and N > 0.
    """
    _check_KN(K, N, 0)
    t_arr = np.asarray(t, dtype=float)
    th_arr = np.asarray(theta, dtype=float)
    scalar = t_arr.ndim == 0 and th_arr.ndim == 0
    t_arr, th_arr = np.broadcast_arrays(np.atleast_1d(t_arr), np.atleast_1d(th_arr))
    if not np.all((-1e-15 <= t_arr) & (t_arr <= 1 + 1e-15)):
        raise BadParameter("t must lie in [0, 1]")
    out, = _sigmas(K, N, (t_arr,), th_arr)
    return float(out[0]) if scalar else out


def _sigmas(K: float, N: float, ts, theta: np.ndarray) -> list:
    """[sigma(K, N, t, theta) for t in ts], each t shaped like theta, with one
    theta check and one denominator; the sin or sinh ratio runs over whole arrays."""
    if not np.all((0 <= theta) & (theta < np.inf)):
        raise BadParameter("theta must be finite and nonnegative")
    kt2 = K * theta**2
    blow = (kt2 >= N * np.pi**2) & (kt2 != 0)       # only K > 0 reaches N pi^2
    on = (kt2 != 0) & ~blow & (K > 0 or N > 0)      # with N = 0, K theta^2 < 0 keeps t
    outs = [np.array(t, dtype=float) for t in ts]     # the value where K theta^2 = 0
    if on.any():
        fn, om = (np.sin, np.sqrt(K / N)) if K > 0 else (np.sinh, np.sqrt(-K / N))
        with np.errstate(all="ignore"):     # 0/0 off the branch is not copied
            den = fn(theta * om)
            for out, t in zip(outs, ts):
                np.copyto(out, fn(t * theta * om) / den, where=on)
    for out in outs:
        out[blow] = np.inf
    return outs


def tau(K: float, N: float, t, theta):
    """tau_{K,N}^{(t)}(theta) = t^{1/N} sigma_{K,N-1}^{(t)}(theta)^{(N-1)/N}."""
    _check_KN(K, N, 1)
    s = sigma(K, N - 1, t, theta)
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isinf(s_arr), np.inf,
                       t_arr ** (1.0 / N) * np.where(np.isinf(s_arr), 1.0, s_arr)
                       ** ((N - 1.0) / N))
    return float(out) if np.ndim(out) == 0 else out


def _interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp) bit for bit while slopes are finite: the bracket xp[j] <= x < xp[j + 1]
    is guessed from the mean step, moved one cell up when x reaches xp[j + 1] or down when x is
    below xp[j] (the guess rounds one cell off near nodes) and checked; only misses, x out of
    range or NaN among them, are searched."""
    last = len(xp) - 2
    xp1, fp1 = xp[1:], fp[1:]       # xp1[j] is xp[j + 1]
    g = (x - xp[0]) * ((last + 1) / (xp[-1] - xp[0]))
    j = np.minimum(np.fmax(g, 0, out=g), last, out=g).astype(np.intp)     # fmax sends NaN to 0
    j += (x >= xp1[j]) & (j < last)
    j -= (x < xp[j]) & (j > 0)
    x0, x1 = xp[j], xp1[j]
    miss = np.flatnonzero(~((x0 <= x) & (x < x1)))
    xm = x[miss]
    j[miss] = np.clip(np.searchsorted(xp, xm, side="right") - 1, 0, last)
    x0[miss], x1[miss] = xp[j[miss]], xp1[j[miss]]
    f0 = fp[j]
    out = (fp1[j] - f0) / (x1 - x0) * (x - x0) + f0
    out[miss] = np.select([xm < xp[0], xm >= xp[-1], np.isnan(xm)], [fp[0], fp[-1], xm],
                          out[miss])
    return out


def _profile(density: Density1D, N: float) -> np.ndarray:
    return density.values ** (1.0 / (N - 1.0))


def _constant_report(density: Density1D, rel_tol: float) -> CDReport:
    v = density.values
    mean = v.mean()
    spread = float(np.ptp(v) / max(mean, 1e-300))
    return CDReport(spread <= rel_tol, -spread, None, len(v), rel_tol,
                    reason=None if spread <= rel_tol else "density not constant (N=1)")


def _check_rel_tol(rel_tol: float) -> None:
    if not 0 <= rel_tol < np.inf:   # NaN fails too
        raise BadParameter(f"rel_tol must be finite and >= 0, got {rel_tol}")


def _node_tuples(density: Density1D, tuples, width: int, name: str, ordered,
                 order: str) -> np.ndarray:
    """The (k, width) node tuples of a check, after the tests both checks
    share: no interior zero of h between positive neighbours, and tuples that
    exist, are finite and are `ordered` by columns (else "{name} need {order}")."""
    v = density.values
    interior_zero = (v[1:-1] == 0) & (v[:-2] > 0) & (v[2:] > 0)
    if interior_zero.any():
        k = int(np.where(interior_zero)[0][0]) + 1
        raise DegenerateDensity(
            f"density vanishes at interior grid point t={density.grid[k]:g} "
            "while its neighbors are positive")
    tuples = np.asarray(tuples, dtype=float).reshape(-1, width)
    if len(tuples) == 0:
        raise BadParameter(f"no {name} to check")
    if not np.isfinite(tuples).all():
        raise BadParameter(f"{name} must be finite")
    if not ordered(*tuples.T).all():
        raise BadParameter(f"{name} need {order}")
    return tuples


def _report(tuples: np.ndarray, blow: np.ndarray, reason: str, margins,
            rel_tol: float) -> CDReport:
    """The first tuple with an infinite coefficient (`blow`) fails at margin -inf
    for `reason`; else the least relative slack of `margins()`, run only then, decides."""
    if blow.any():
        k, margin = int(np.argmax(blow)), -np.inf
    else:
        margins = margins()
        k = int(np.argmin(margins))
        margin, reason = float(margins[k]), None
    return CDReport(margin >= -rel_tol, margin, tuple(map(float, tuples[k])), len(tuples),
                    rel_tol, reason)


def cd_density_check(density: Density1D, K: float, N: float, triples,
                     rel_tol: float = 1e-7) -> CDReport:
    """Synthetic CD(K,N) inequality for h on sampled triples (t0, t1, s).

    Checks h((1-s)t0 + s t1)^{1/(N-1)} >= sigma^{(1-s)}_{K,N-1}(t1-t0)
    h(t0)^{1/(N-1)} + sigma^{(s)}_{K,N-1}(t1-t0) h(t1)^{1/(N-1)}. For
    N = 1 the check degenerates to "h is constant".
    """
    _check_KN(K, N, 1)
    _check_rel_tol(rel_tol)
    if N == 1:
        return _constant_report(density, rel_tol)
    triples = _node_tuples(density, triples, 3, "triples",
                           lambda t0, t1, s: (t0 < t1) & (0 <= s) & (s <= 1),
                           "t0 < t1 and 0 <= s <= 1")
    t0, t1, s = triples.T
    f = _profile(density, N)
    grid = density.grid
    theta = t1 - t0
    mid = (1 - s) * t0 + s * t1
    f0 = _interp(t0, grid, f)
    f1 = _interp(t1, grid, f)
    fm = _interp(mid, grid, f)
    sig0, sig1 = _sigmas(K, N - 1, (1 - s, s), theta)
    with np.errstate(invalid="ignore"):
        term0 = np.where(f0 == 0, 0.0, sig0 * f0)
        term1 = np.where(f1 == 0, 0.0, sig1 * f1)
    rhs = term0 + term1
    return _report(triples, np.isinf(rhs),
                   "K theta^2 >= (N-1) pi^2: domain too long for claimed curvature",
                   lambda: np.where(rhs > 0, (fm - rhs) / np.where(rhs > 0, rhs, 1.0), 0.0),
                   rel_tol)


def mcp_density_check(density: Density1D, K: float, N: float, quadruples,
                      rel_tol: float = 1e-7) -> CDReport:
    """Two-sided MCP sine-ratio bounds on h(tau)/h(s), K > 0 branch.

    Quadruples are (sigma-, s, tau, sigma+) with sigma- < s <= tau <
    sigma+; the worst quadruple and the smaller of both relative slacks
    are reported.
    """
    if not K > 0:
        raise BadParameter("only the K > 0 sine-ratio branch is implemented")
    _check_KN(K, N, 1)
    _check_rel_tol(rel_tol)
    if N == 1:
        return _constant_report(density, rel_tol)
    quads = _node_tuples(density, quadruples, 4, "quadruples",
                         lambda sm, s, tu, sp: (sm < s) & (s <= tu) & (tu < sp),
                         "sigma- < s <= tau < sigma+")
    sm, s, tu, sp = quads.T
    om = np.sqrt(K / (N - 1.0))
    args = np.stack([(sp - tu) * om, (sp - s) * om, (tu - sm) * om, (s - sm) * om])

    def margins():
        hs = _interp(s, density.grid, density.values)
        if np.any(hs == 0):
            raise DegenerateDensity("h vanishes at a tested base point")
        ratio = _interp(tu, density.grid, density.values) / hs
        lower = (np.sin(args[0]) / np.sin(args[1])) ** (N - 1.0)
        upper = (np.sin(args[2]) / np.sin(args[3])) ** (N - 1.0)
        return np.minimum((ratio - lower) / lower, (upper - ratio) / upper)

    return _report(quads, (args >= np.pi).any(axis=0),
                   "sine argument >= pi: domain too long for claimed curvature", margins, rel_tol)


_PSI_GRID = np.linspace(0.0, 1.0, 4097)


def _bump(x: np.ndarray) -> np.ndarray:
    y = 2.0 * x - 1.0
    out = np.zeros_like(x)
    inside = np.abs(y) < 1
    out[inside] = np.exp(-1.0 / (1.0 - y[inside] ** 2))
    return out


def _simpson_weights(m: int, h: float) -> np.ndarray:
    # m+1 nodes, m even
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0

_PSI_NORM = float(_bump(_PSI_GRID) @ _simpson_weights(len(_PSI_GRID) - 1,
                                                      _PSI_GRID[1] - _PSI_GRID[0]))


def standard_mollifier(x):
    """C-infinity bump supported in [0, 1] with unit integral."""
    return _bump(np.asarray(x, dtype=float)) / _PSI_NORM


def mollify_density(density: Density1D, N: float, eps: float) -> Density1D:
    """h_eps = [h^{1/(N-1)} * psi_eps]^{N-1} on a grid extended to [a-eps, b+eps].

    The convolution runs on a uniform grid 10 times finer than the
    density's finest step, with composite Simpson weights on the kernel
    window.
    """
    if not 1 < N < np.inf:          # NaN fails too
        raise BadDimension(f"mollification needs a finite N > 1, got {N}")
    if not 0 < eps < np.inf:
        raise BadParameter(f"eps must be finite and positive, got {eps}")
    a, b = density.domain
    step_in = np.diff(density.grid).min()
    step = step_in / 10
    m = int(np.ceil(eps / step))
    if m % 2:
        m += 1
    du = eps / m
    npts = int(np.floor((b - a + 2 * eps) / du + 1e-9)) + 1
    grid = (a - eps) + du * np.arange(npts)
    f_in = _profile(density, N)
    f = np.where((grid >= a) & (grid <= b), np.interp(grid, density.grid, f_in), 0.0)
    u = np.arange(m + 1) * du
    w = standard_mollifier(u / eps) / eps * _simpson_weights(m, du)
    conv = np.convolve(f, w)[: len(grid)]
    vals = np.clip(conv, 0.0, None) ** (N - 1.0)
    return Density1D(grid, vals)


_SORTING_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)),
                     4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def _sorted_draws(n: int, count: int, width: int, rng) -> list:
    """The columns of rng.integers(0, n, size=(count, width)), each row sorted
    by a min/max network over the columns: np.sort(axis=1) without a sort per row."""
    if not (isinstance(count, (int, np.integer)) and count >= 0):
        raise BadParameter(f"count must be an integer >= 0, got {count!r}")
    cols = list(rng.integers(0, n, size=(count, width)).T)
    for a, b in _SORTING_NETWORKS[width]:
        cols[a], cols[b] = np.minimum(cols[a], cols[b]), np.maximum(cols[a], cols[b])
    return cols


def sample_triples(grid: np.ndarray, count: int, rng=None,
                   include_extremes: bool = True) -> np.ndarray:
    """Node-aligned triples (t0, t1, s): on a uniform grid the midpoint
    (1-s)t0 + s t1 lands exactly on a node, so no interpolation error."""
    rng = rng or np.random.default_rng(0)
    n = len(grid)
    i0, i1, i2 = _sorted_draws(n, count, 3, rng)
    good = (i0 < i1) & (i1 < i2)
    i0, i1, i2 = i0[good], i1[good], i2[good]
    extra = []
    if include_extremes:
        # widest pair with a node midpoint, plus symmetric inner pairs
        j = n - 1 if (n - 1) % 2 == 0 else n - 2
        extra = [(grid[0], grid[j], 0.5)] if j > 0 else []
        for k in (n // 8, n // 4, 3 * n // 8):
            if 0 < k < j - k:
                extra.append((grid[k], grid[j - k], 0.5))
    triples = np.empty((len(extra) + len(i0), 3))
    triples[:len(extra)] = np.reshape(extra, (-1, 3))
    rest = triples[len(extra):]
    rest[:, 0], rest[:, 1], rest[:, 2] = grid[i0], grid[i2], (i1 - i0) / (i2 - i0)
    return triples


def sample_quadruples(grid: np.ndarray, count: int, rng=None) -> np.ndarray:
    """Node quadruples (sigma-, s, tau, sigma+), sigma- < s <= tau < sigma+."""
    rng = rng or np.random.default_rng(0)
    cols = _sorted_draws(len(grid), count, 4, rng)
    good = np.flatnonzero((cols[0] < cols[1]) & (cols[2] < cols[3]))
    quads = np.empty((len(good), 4), dtype=grid.dtype)
    for c, col in enumerate(cols):
        quads[:, c] = grid[col[good]]
    return quads


def load_density_csv(path) -> Density1D:
    """Density file: CSV with columns t,h (header optional)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names and set(map(str.lower, data.dtype.names)) >= {"t", "h"}:
        cols = {name.lower(): name for name in data.dtype.names}
        return Density1D(np.atleast_1d(data[cols["t"]]), np.atleast_1d(data[cols["h"]]))
    raw = np.loadtxt(path, delimiter=",")
    return Density1D(raw[:, 0], raw[:, 1])
