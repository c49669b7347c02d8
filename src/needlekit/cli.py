"""Batch front end: load space specs, run pipelines, emit reports.

Reports are JSON with a manifest (versions, seed, config echo, wall time)
and are written atomically. Exit codes: 0 = computed and passed, 2 =
computed but the math fails (a check verdict is negative), 1 = could not
compute (bad usage or input, IO, solver error).
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


def _read(what, parse, *args):
    """parse(*args); a malformed input file or value is a ConfigError."""
    try:
        return parse(*args)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def natural(text):
    """argparse type: an integer >= 0 (argparse reports a ValueError)."""
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def floats(text):
    """argparse type: a nonempty comma-separated list of floats."""
    vals = [float(x) for x in text.split(",") if x.strip()]
    if not vals:
        raise ValueError(text)
    return vals


def _load_marginals(path, space: ms.MMSpace):
    with open(path) as fh:
        data = json.load(fh)

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


def _write(path, text):
    """Write text to path atomically (to stdout when path is None)."""
    if path is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_report(path, payload):
    _write(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _write_csv(report_path, rows, header):
    """The rows as a CSV beside the report (none when the report goes to stdout)."""
    if report_path:
        lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in rows]
        _write(os.path.splitext(report_path)[0] + ".csv", "\n".join(lines) + "\n")


def _manifest(args, t0):
    echo = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {
        "versions": {
            "needlekit": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "command": args.command,
        "seed": getattr(args, "seed", None),
        "config": echo,
        "wall_time_s": time.time() - t0,
    }


def _decompose_pipeline(args):
    space = _read("space spec", ms.load_spec, args.space)
    if args.marginals:
        mu0, mu1 = _read("marginals", _load_marginals, args.marginals, space)
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
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    coupling = mg.assemble_monge_map(space, dec, None, cond)
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
        return _read("density CSV", cv.load_density_csv, args.space)
    space = _read("space spec", ms.load_spec, args.space)
    if space.density is None:
        raise ConfigError(
            "check-cd/check-mcp need an interval-type space spec or a t,h CSV")
    return space.density


def _check_command(sample, check):
    """check-cd / check-mcp: `check` on `--samples` points drawn by `sample`."""
    def cmd(args):
        t0 = time.time()
        dens = _density_from_space(args)
        points = sample(dens.grid, args.samples, np.random.default_rng(args.seed))
        rep = check(dens, args.K, args.N, points, rel_tol=args.tol)
        report = {"check": rep.to_json(), "manifest": _manifest(args, t0)}
        _write_report(args.out, _sanitize(report))
        return EXIT_PASS if rep.verdict else EXIT_FAIL
    return cmd


def cmd_profile(args):
    t0 = time.time()
    space = _read("space spec", ms.load_spec, args.space)

    def one(iv):
        i, v = iv
        return iso.empirical_profile(space, v, rng=np.random.default_rng(args.seed + i))

    points = _pmap(one, list(enumerate(args.v_grid)), args.threads)
    report = {
        "points": [dataclasses.asdict(p) for p in points],
        "manifest": _manifest(args, t0),
    }
    _write_report(args.out, _sanitize(report))
    _write_csv(args.out, [(p.requested_v, p.v, p.content) for p in points],
               ["v_requested", "v_attained", "content"])
    return EXIT_PASS


def cmd_levy_gromov(args):
    t0 = time.time()
    space = _read("space spec", ms.load_spec, args.space)
    spec = iso.ModelProfileSpec(args.K, args.N, space.max_distance)
    rep = iso.levy_gromov_check(space, spec, args.v_grid,
                                rng=np.random.default_rng(args.seed),
                                threads=args.threads)
    report = {"levy_gromov": rep, "manifest": _manifest(args, t0)}
    _write_report(args.out, _sanitize(report))
    _write_csv(args.out, [(r["v"], r["empirical"], r["model"]) for r in rep["rows"]],
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


class _Parser(argparse.ArgumentParser):
    """Bad usage raises ConfigError, so it exits 1 (subparsers inherit the class)."""
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="needlekit",
                     description="L1 optimal transport localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--space": dict(required=True, help="space-spec JSON path"),
        "--marginals": dict(default=None, help="marginals JSON path"),
        "--K": dict(type=float, required=True),
        "--N": dict(type=float, required=True),
        "--v-grid": dict(type=floats, default="0.25,0.5,0.75"),
        "--seed": dict(type=natural, default=0),
        "--samples": dict(type=natural, default=5000),
        "--threads": dict(type=natural, default=os.environ.get("NEEDLE_THREADS", "1")),
        "--out": dict(default=None, help="report JSON path (stdout if omitted)"),
    }
    gamma_tol = dict(type=float, default=None, help="Gamma tolerance (default: w1solve.gamma_tol)")
    rel_tol = dict(type=float, default=1e-7, help="relative tolerance of the check")
    pipeline = "--space --marginals --seed --tol --out"
    check = "--space --K --N --seed --samples --tol --out"
    for name, fn, names, tol in [
        ("solve-monge", cmd_solve_monge, pipeline, gamma_tol),
        ("decompose", cmd_decompose, pipeline, gamma_tol),
        ("check-cd", _check_command(cv.sample_triples, cv.cd_density_check), check, rel_tol),
        ("check-mcp", _check_command(cv.sample_quadruples, cv.mcp_density_check), check, rel_tol),
        ("profile", cmd_profile, "--space --v-grid --seed --threads --out", None),
        ("levy-gromov", cmd_levy_gromov, "--space --K --N --v-grid --seed --threads --out", None),
        ("selftest", cmd_selftest, "--out", None),
    ]:
        p = sub.add_parser(name)
        for flag in names.split():
            p.add_argument(flag, **(tol if flag == "--tol" else flags[flag]))
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (NeedleError, OSError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
