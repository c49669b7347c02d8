"""Batch front end: load space specs, run pipelines, emit reports.

Reports are JSON with a manifest (versions, seed, config echo, wall time)
and are written atomically. Exit codes: 0 = computed and passed, 2 =
computed but the math fails (a check verdict is negative), 1 = could not
compute (bad config, IO, solver error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np
import scipy

from . import __version__
from . import curvature as cv
from . import disint as di
from . import isoperim as iso
from . import mmspace as ms
from . import monge1d as mg
from . import rays as ry
from . import selftest as stest
from . import w1solve as w1
from .errors import ConfigError, NeedleError
from .isoperim import _pmap

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


def _load_marginals(path, space: ms.MMSpace):
    with open(path) as fh:
        data = json.load(fh)
    if "mu0" not in data or "mu1" not in data:
        raise ConfigError("marginals file needs 'mu0' and 'mu1'")

    def vec(entry):
        if isinstance(entry, dict):
            out = np.zeros(space.n)
            for key, val in entry.items():
                out[space.index_of(type(space.point_ids[0])(key))] = float(val)
            return out
        out = np.asarray(entry, dtype=float)
        if out.shape != (space.n,):
            raise ConfigError(f"marginal length {out.shape} != {space.n}")
        return out

    return vec(data["mu0"]), vec(data["mu1"])


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _sanitize(value):
    """Tag non-finite floats so every report numeric is explicit."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if np.isnan(v):
            return "nan"
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    return value


def _write_report(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if path is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, rows, header):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    os.replace(tmp, path)


def _manifest(args, t0):
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    return {
        "versions": {
            "needlekit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "seed": getattr(args, "seed", None),
        "config": echo,
        "wall_time_s": time.time() - t0,
    }


def _decompose_pipeline(args):
    space = ms.load_spec(args.space)
    if args.marginals:
        mu0, mu1 = _load_marginals(args.marginals, space)
    else:
        rng = np.random.default_rng(args.seed)
        f = rng.normal(size=space.n)
        f -= f @ space.weights
        mu0 = np.clip(f, 0, None) * space.weights
        mu1 = np.clip(-f, 0, None) * space.weights
        mu0 /= mu0.sum()
        mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    gamma = w1.gamma_set(space, sol, tol=args.tol)
    structure = ry.build_transport_structure(space, gamma)
    dec = ry.partition_rays(space, structure, sol)
    return space, sol, gamma, structure, dec


def cmd_solve_monge(args):
    t0 = time.time()
    space, sol, gamma, structure, dec = _decompose_pipeline(args)
    d0 = di.disintegrate(space, dec, sol.mu0)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    coupling = mg.assemble_monge_map(space, dec, d0, cond)
    report = {
        "w1": sol.to_json(),
        "monge": coupling.to_json(),
        "cost_vs_w1": abs(coupling.cost - sol.primal_value),
        "manifest": _manifest(args, t0),
    }
    _write_report(args.out, _sanitize(report))
    return EXIT_PASS


def cmd_decompose(args):
    t0 = time.time()
    space, sol, gamma, structure, dec = _decompose_pipeline(args)
    bm = structure.branching_mass(space.weights)
    report = {
        "solution": {
            "primal_value": sol.primal_value,
            "duality_gap": sol.duality_gap,
            "lipschitz_residual": sol.lipschitz_residual,
            "engine": sol.engine,
            "slack_floor": sol.slack_floor,
            "support_residual": sol.support_residual,
            "gamma_tol": gamma.tol,
        },
        "decomposition": dec.to_json(),
        "branching": {
            "A_plus": structure.branching_fwd.tolist(),
            "A_minus": structure.branching_bwd.tolist(),
            "mass_fraction": bm["fraction"],
        },
        "manifest": _manifest(args, t0),
    }
    _write_report(args.out, _sanitize(report))
    return EXIT_PASS


def _density_from_space(args):
    if str(args.space).endswith(".csv"):
        return cv.load_density_csv(args.space)
    space = ms.load_spec(args.space)
    if space.density is None:
        raise ConfigError(
            "check-cd/check-mcp need an interval-type space spec or a t,h CSV")
    return space.density


def cmd_check_cd(args):
    t0 = time.time()
    dens = _density_from_space(args)
    rng = np.random.default_rng(args.seed)
    triples = cv.sample_triples(dens.grid, args.samples, rng)
    rep = cv.cd_density_check(dens, args.K, args.N, triples,
                              rel_tol=args.tol if args.tol else 1e-7)
    report = {"check": rep.to_json(), "manifest": _manifest(args, t0)}
    _write_report(args.out, _sanitize(report))
    return EXIT_PASS if rep.verdict else EXIT_FAIL


def cmd_check_mcp(args):
    t0 = time.time()
    dens = _density_from_space(args)
    rng = np.random.default_rng(args.seed)
    quads = cv.sample_quadruples(dens.grid, args.samples, rng)
    rep = cv.mcp_density_check(dens, args.K, args.N, quads,
                               rel_tol=args.tol if args.tol else 1e-7)
    report = {"check": rep.to_json(), "manifest": _manifest(args, t0)}
    _write_report(args.out, _sanitize(report))
    return EXIT_PASS if rep.verdict else EXIT_FAIL


def _parse_vgrid(text):
    vals = [float(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise ConfigError("empty v-grid")
    return vals


def cmd_profile(args):
    t0 = time.time()
    space = ms.load_spec(args.space)
    v_grid = _parse_vgrid(args.v_grid)

    def one(iv):
        i, v = iv
        return iso.empirical_profile(space, v, rng=np.random.default_rng(args.seed + i))

    points = _pmap(one, list(enumerate(v_grid)), args.threads)
    report = {
        "points": [dataclasses.asdict(p) for p in points],
        "manifest": _manifest(args, t0),
    }
    _write_report(args.out, _sanitize(report))
    if args.out:
        _write_csv(os.path.splitext(args.out)[0] + ".csv",
                   [(p.requested_v, p.v, p.content) for p in points],
                   ["v_requested", "v_attained", "content"])
    return EXIT_PASS


def cmd_levy_gromov(args):
    t0 = time.time()
    space = ms.load_spec(args.space)
    if args.K is None or args.N is None:
        raise ConfigError("levy-gromov needs --K and --N")
    v_grid = _parse_vgrid(args.v_grid)
    spec = iso.ModelProfileSpec(args.K, args.N, args.D if args.D else space.diameter)
    rep = iso.levy_gromov_check(space, spec, v_grid,
                                rng=np.random.default_rng(args.seed),
                                threads=args.threads)
    report = {"levy_gromov": rep, "manifest": _manifest(args, t0)}
    _write_report(args.out, _sanitize(report))
    if args.out:
        _write_csv(os.path.splitext(args.out)[0] + ".csv",
                   [(r["v"], r["empirical"], r["model"]) for r in rep["rows"]],
                   ["v", "empirical", "model"])
    return EXIT_PASS if rep["verdict"] == "pass" else EXIT_FAIL


def cmd_selftest(args):
    t0 = time.time()
    results = stest.run_all(verbose=True)
    report = {
        "criteria": [dataclasses.asdict(r) for r in results],
        "all_pass": all(r.passed for r in results),
        "manifest": _manifest(args, t0),
    }
    if args.out:
        _write_report(args.out, _sanitize(report))
    return EXIT_PASS if report["all_pass"] else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="needlekit",
        description="L1 optimal transport localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_space=True):
        if needs_space:
            p.add_argument("--space", required=True, help="space-spec JSON path")
        p.add_argument("--marginals", default=None, help="marginals JSON path")
        p.add_argument("--K", type=float, default=None)
        p.add_argument("--N", type=float, default=None)
        p.add_argument("--D", type=float, default=None)
        p.add_argument("--v-grid", default="0.25,0.5,0.75")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=5000)
        p.add_argument("--out", default=None, help="report JSON path (stdout if omitted)")
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("NEEDLE_THREADS", "1")))

    for name, fn, needs_space in [
        ("solve-monge", cmd_solve_monge, True),
        ("decompose", cmd_decompose, True),
        ("check-cd", cmd_check_cd, True),
        ("check-mcp", cmd_check_mcp, True),
        ("profile", cmd_profile, True),
        ("levy-gromov", cmd_levy_gromov, True),
        ("selftest", cmd_selftest, False),
    ]:
        p = sub.add_parser(name)
        common(p, needs_space)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NeedleError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
