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
from .mmspace import Density1D


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
    if N < 0:
        raise BadDimension("N must be >= 0")
    t_arr = np.asarray(t, dtype=float)
    th_arr = np.asarray(theta, dtype=float)
    scalar = t_arr.ndim == 0 and th_arr.ndim == 0
    t_arr, th_arr = np.broadcast_arrays(np.atleast_1d(t_arr), np.atleast_1d(th_arr))
    if np.any(t_arr < -1e-15) or np.any(t_arr > 1 + 1e-15):
        raise ValueError("t must lie in [0, 1]")
    if np.any(th_arr < 0):
        raise ValueError("theta must be nonnegative")
    out = np.empty_like(t_arr)
    kt2 = K * th_arr**2
    zero = kt2 == 0
    out[zero] = t_arr[zero]
    if K > 0:
        pos = ~zero
        blow = pos & (kt2 >= N * np.pi**2)
        out[blow] = np.inf
        fin = pos & ~blow
        if fin.any():
            om = np.sqrt(K / N)
            out[fin] = np.sin(t_arr[fin] * th_arr[fin] * om) / np.sin(th_arr[fin] * om)
    elif K < 0:
        neg = ~zero
        if N == 0:
            out[neg] = t_arr[neg]
        elif neg.any():
            om = np.sqrt(-K / N)
            out[neg] = np.sinh(t_arr[neg] * th_arr[neg] * om) / np.sinh(th_arr[neg] * om)
    return float(out[0]) if scalar else out


def tau(K: float, N: float, t, theta):
    """tau_{K,N}^{(t)}(theta) = t^{1/N} sigma_{K,N-1}^{(t)}(theta)^{(N-1)/N}."""
    if N < 1:
        raise BadDimension("N must be >= 1")
    s = sigma(K, N - 1, t, theta)
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isinf(s_arr), np.inf,
                       t_arr ** (1.0 / N) * np.where(np.isinf(s_arr), 1.0, s_arr)
                       ** ((N - 1.0) / N))
    return float(out) if np.ndim(out) == 0 else out


def _profile(density: Density1D, N: float) -> np.ndarray:
    return density.values ** (1.0 / (N - 1.0))


def _degeneracy_scan(density: Density1D):
    v = density.values
    interior_zero = (v[1:-1] == 0) & (v[:-2] > 0) & (v[2:] > 0)
    if interior_zero.any():
        k = int(np.where(interior_zero)[0][0]) + 1
        raise DegenerateDensity(
            f"density vanishes at interior grid point t={density.grid[k]:g} "
            "while its neighbors are positive")


def _constant_report(density: Density1D, rel_tol: float) -> CDReport:
    v = density.values
    mean = v.mean()
    spread = float(np.ptp(v) / max(mean, 1e-300))
    return CDReport(spread <= rel_tol, -spread, None, len(v), rel_tol,
                    reason=None if spread <= rel_tol else "density not constant (N=1)")


def cd_density_check(density: Density1D, K: float, N: float, triples,
                     rel_tol: float = 1e-7) -> CDReport:
    """Synthetic CD(K,N) inequality for h on sampled triples (t0, t1, s).

    Checks h((1-s)t0 + s t1)^{1/(N-1)} >= sigma^{(1-s)}_{K,N-1}(t1-t0)
    h(t0)^{1/(N-1)} + sigma^{(s)}_{K,N-1}(t1-t0) h(t1)^{1/(N-1)}. For
    N = 1 the check degenerates to "h is constant".
    """
    if N == 1:
        return _constant_report(density, rel_tol)
    if N < 1:
        raise BadDimension("N must be >= 1")
    _degeneracy_scan(density)
    triples = np.asarray(triples, dtype=float).reshape(-1, 3)
    t0, t1, s = triples[:, 0], triples[:, 1], triples[:, 2]
    if np.any(t1 <= t0):
        raise ValueError("triples need t0 < t1")
    f = _profile(density, N)
    grid = density.grid
    theta = t1 - t0
    mid = (1 - s) * t0 + s * t1
    f0 = np.interp(t0, grid, f)
    f1 = np.interp(t1, grid, f)
    fm = np.interp(mid, grid, f)
    sig0 = sigma(K, N - 1, 1 - s, theta)
    sig1 = sigma(K, N - 1, s, theta)
    with np.errstate(invalid="ignore"):
        term0 = np.where(f0 == 0, 0.0, sig0 * f0)
        term1 = np.where(f1 == 0, 0.0, sig1 * f1)
    rhs = term0 + term1
    blow = np.isinf(rhs)
    if blow.any():
        k = int(np.where(blow)[0][0])
        return CDReport(False, -np.inf, (t0[k], t1[k], s[k]), len(triples), rel_tol,
                        reason="K theta^2 >= (N-1) pi^2: domain too long for claimed curvature")
    margins = np.where(rhs > 0, (fm - rhs) / np.where(rhs > 0, rhs, 1.0), 0.0)
    k = int(np.argmin(margins))
    margin = float(margins[k])
    return CDReport(margin >= -rel_tol, margin, (float(t0[k]), float(t1[k]), float(s[k])),
                    len(triples), rel_tol)


def mcp_density_check(density: Density1D, K: float, N: float, quadruples,
                      rel_tol: float = 1e-7) -> CDReport:
    """Two-sided MCP sine-ratio bounds on h(tau)/h(s), K > 0 branch.

    Quadruples are (sigma-, s, tau, sigma+) with sigma- < s <= tau <
    sigma+; the worst quadruple and the smaller of both relative slacks
    are reported.
    """
    if K <= 0:
        raise BadParameter("only the K > 0 sine-ratio branch is implemented")
    if N < 1:
        raise BadDimension("N must be >= 1")
    if N == 1:
        return _constant_report(density, rel_tol)
    _degeneracy_scan(density)
    quads = np.asarray(quadruples, dtype=float).reshape(-1, 4)
    if len(quads) == 0:
        raise BadParameter("no quadruples to check")
    sm, s, tu, sp = quads[:, 0], quads[:, 1], quads[:, 2], quads[:, 3]
    if np.any(~((sm < s) & (s <= tu) & (tu < sp))):
        raise ValueError("quadruples need sigma- < s <= tau < sigma+")
    om = np.sqrt(K / (N - 1.0))
    args = np.stack([(sp - tu) * om, (sp - s) * om, (tu - sm) * om, (s - sm) * om])
    if np.any(args >= np.pi):
        k = int(np.argwhere((args >= np.pi).any(axis=0))[0][0])
        return CDReport(False, -np.inf, tuple(quads[k]), len(quads), rel_tol,
                        reason="sine argument >= pi: domain too long for claimed curvature")
    g = density.grid
    hs = np.interp(s, g, density.values)
    ht = np.interp(tu, g, density.values)
    if np.any(hs == 0):
        raise DegenerateDensity("h vanishes at a tested base point")
    ratio = ht / hs
    lower = (np.sin(args[0]) / np.sin(args[1])) ** (N - 1.0)
    upper = (np.sin(args[2]) / np.sin(args[3])) ** (N - 1.0)
    m_lo = (ratio - lower) / lower
    m_hi = (upper - ratio) / upper
    margins = np.minimum(m_lo, m_hi)
    k = int(np.argmin(margins))
    margin = float(margins[k])
    return CDReport(margin >= -rel_tol, margin,
                    (float(sm[k]), float(s[k]), float(tu[k]), float(sp[k])),
                    len(quads), rel_tol)


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
    if N <= 1:
        raise BadDimension("mollification needs N > 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
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


def sample_triples(grid: np.ndarray, count: int, rng=None,
                   include_extremes: bool = True) -> np.ndarray:
    """Node-aligned triples (t0, t1, s): on a uniform grid the midpoint
    (1-s)t0 + s t1 lands exactly on a node, so no interpolation error."""
    rng = rng or np.random.default_rng(0)
    n = len(grid)
    idx = np.sort(rng.integers(0, n, size=(count, 3)), axis=1)
    good = (idx[:, 0] < idx[:, 1]) & (idx[:, 1] < idx[:, 2])
    idx = idx[good]
    t0 = grid[idx[:, 0]]
    t1 = grid[idx[:, 2]]
    s = (idx[:, 1] - idx[:, 0]) / (idx[:, 2] - idx[:, 0])
    triples = np.stack([t0, t1, s], axis=1)
    if include_extremes:
        # widest pair with a node midpoint, plus symmetric inner pairs
        j = n - 1 if (n - 1) % 2 == 0 else n - 2
        extra = [(grid[0], grid[j], 0.5)]
        for k in (n // 8, n // 4, 3 * n // 8):
            if 0 < k < j - k:
                extra.append((grid[k], grid[j - k], 0.5))
        triples = np.concatenate([np.array(extra), triples], axis=0)
    return triples


def sample_quadruples(grid: np.ndarray, count: int, rng=None) -> np.ndarray:
    """Node quadruples (sigma-, s, tau, sigma+), sigma- < s <= tau < sigma+."""
    rng = rng or np.random.default_rng(0)
    n = len(grid)
    idx = np.sort(rng.integers(0, n, size=(count, 4)), axis=1)
    good = (idx[:, 0] < idx[:, 1]) & (idx[:, 2] < idx[:, 3])
    idx = idx[good]
    return grid[idx]


def load_density_csv(path) -> Density1D:
    """Density file: CSV with columns t,h (header optional)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if data.dtype.names and set(map(str.lower, data.dtype.names)) >= {"t", "h"}:
        cols = {name.lower(): name for name in data.dtype.names}
        return Density1D(np.atleast_1d(data[cols["t"]]), np.atleast_1d(data[cols["h"]]))
    raw = np.loadtxt(path, delimiter=",")
    return Density1D(raw[:, 0], raw[:, 1])


def save_density_csv(path, density: Density1D):
    with open(path, "w") as fh:
        fh.write("t,h\n")
        for t, h in zip(density.grid, density.values):
            fh.write(f"{float(t)!r},{float(h)!r}\n")
