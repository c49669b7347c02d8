"""Per-layer metrics: which spans make up each time metric, and the hooks
that read counts from the public result fields of each call."""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np
from scipy import sparse

# time metric -> the spans whose self time it sums
SELF_TIME = {
    "w1solve.solve_w1_s": ("w1solve.solve_w1",),
    "w1solve.gamma_set_s": ("w1solve.gamma_set",),
    "rays.build_transport_structure_s": ("rays.build_transport_structure",),
    "rays.partition_rays_s": ("rays.partition_rays",),
    "disint.disintegrate_s": ("disint.disintegrate",),
    "monge1d.condition_s": ("monge1d.condition_target_via_plan",),
    "monge1d.assemble_s": ("monge1d.assemble_monge_map",),
    "monge1d.rearrange_s": ("monge1d.monotone_rearrangement",),
    "curvature.cd_check_s": ("curvature.cd_density_check",),
    "curvature.mcp_check_s": ("curvature.mcp_density_check",),
    "curvature.sample_s": ("curvature.sample_triples", "curvature.sample_quadruples"),
    "curvature.sigma_s": ("curvature.sigma", "curvature.tau"),
    "isoperim.levy_gromov_s": ("isoperim.levy_gromov_check",),
    "isoperim.empirical_profile_s": ("isoperim.empirical_profile",),
    "isoperim.model_profile_s": ("isoperim.model_profile",),
    "isoperim.minkowski_content_s": ("isoperim.minkowski_content",),
}
# layers timed in the job loop; mmspace runs at set-up and is mmspace.build_s
PASS_LAYERS = ("w1solve", "rays", "disint", "monge1d", "curvature", "isoperim")
ENGINES = ("assignment", "highs", "highs-colgen", "line", "identity")
COUNTS = (
    "mmspace.dist_bytes",
    *(f"w1solve.engine.{e}" for e in ENGINES),
    "w1solve.failures", "w1solve.moved_points", "w1solve.arcs",
    "w1solve.slack_floor_min", "w1solve.slack_floor_median", "w1solve.support_residual_max",
    "rays.gamma_pairs", "rays.gamma_fill", "rays.mask_bytes",
    "rays.rays", "rays.orphans", "rays.branching_frac", "rays.ray_mass_frac",
    "disint.residual_mass",
    "monge1d.coupling_pairs", "monge1d.passthrough_pairs",
    "curvature.samples",
    "trace.spans",
)


def unit(count: str) -> str:
    if count.endswith("_bytes"):
        return "B"
    if count.endswith(("_fill", "_frac")):
        return "ratio"
    if "slack_floor" in count or "residual_max" in count:
        return "dist"
    return "mass" if count.endswith("_mass") else "count"


def _nbytes(obj) -> int:
    """Bytes held by the arrays of a result object (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sparse.issparse(obj):
        csr = obj.tocsr()
        return csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _space_built(rec, args, kwargs, result, error):
    if error is None:
        space = result[0] if isinstance(result, tuple) else result
        rec.counts["mmspace.dist_bytes"] += space.D.nbytes


def _solve(rec, args, kwargs, result, error):
    space = _arg(args, kwargs, 0, "space")
    if space.line_coord is None:       # the line engine needs no tightening
        b = np.asarray(_arg(args, kwargs, 1, "mu0")) - np.asarray(_arg(args, kwargs, 2, "mu1"))
        S, T = int((b > 0).sum()), int((b < 0).sum())
        rec.counts["w1solve.moved_points"] += S + T
        rec.counts["w1solve.arcs"] += S * T
    if error is not None:
        rec.counts["w1solve.failures"] += 1
        return
    rec.counts[f"w1solve.engine.{result.engine}"] += 1
    rec.samples["slack_floor"].append(result.slack_floor)
    rec.samples["support_residual"].append(result.support_residual)


def _structure(rec, args, kwargs, result, error):
    if error is not None:
        return
    space = _arg(args, kwargs, 0, "space")
    rec.counts["rays.gamma_pairs"] += result.gamma.count - space.n
    rec.counts["n_squared"] += space.n ** 2
    rec.counts["rays.mask_bytes"] += _nbytes(result)
    bm = result.branching_mass(space.weights)
    rec.counts["branching_mass"] += bm["mass_branching"]
    rec.counts["te_mass"] += bm["mass_Te"]


def _partition(rec, args, kwargs, result, error):
    if error is None:
        rec.counts["rays.rays"] += len(result.rays)
        rec.counts["rays.orphans"] += len(result.orphan_points)
        rec.counts["ray_mass"] += sum(ray.mass for ray in result.rays)


def _field(metric, read):
    def hook(rec, args, kwargs, result, error):
        if error is None:
            rec.counts[metric] += read(result)
    return hook


HOOKS = {
    "mmspace.build_space": _space_built,
    "mmspace.generate_interval_model": _space_built,
    "mmspace.generate_sphere_sample": _space_built,
    "w1solve.solve_w1": _solve,
    "rays.build_transport_structure": _structure,
    "rays.partition_rays": _partition,
    "disint.disintegrate": _field("disint.residual_mass", lambda r: r.residual_mass),
    "monge1d.condition_target_via_plan": _field("monge1d.passthrough_pairs",
                                                lambda r: len(r.passthrough)),
    "monge1d.assemble_monge_map": _field("monge1d.coupling_pairs", lambda r: len(r.pairs)),
    "curvature.cd_density_check": _field("curvature.samples", lambda r: r.n_checked),
    "curvature.mcp_density_check": _field("curvature.samples", lambda r: r.n_checked),
}


def counts(rec, spans: int) -> dict:
    """The count metrics of one traced pass, from the recorder's hooks."""
    c = rec.counts
    slack = rec.samples["slack_floor"] or [0.0]
    out = {name: float(c[name]) for name in COUNTS}
    out.update({
        "w1solve.slack_floor_min": float(min(slack)),
        "w1solve.slack_floor_median": float(statistics.median(slack)),
        "w1solve.support_residual_max": float(max(rec.samples["support_residual"] or [0.0])),
        "rays.gamma_fill": c["rays.gamma_pairs"] / c["n_squared"] if c["n_squared"] else 0.0,
        "rays.branching_frac": c["branching_mass"] / c["te_mass"] if c["te_mass"] else 0.0,
        "rays.ray_mass_frac": c["ray_mass"] / c["te_mass"] if c["te_mass"] else 0.0,
        "trace.spans": float(spans),
    })
    return out


def times(self_time: dict) -> dict:
    """The time metrics of one traced pass, from span name -> self time."""
    out = {m: sum(self_time.get(s, 0.0) for s in names) for m, names in SELF_TIME.items()}
    for layer in PASS_LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, t in self_time.items()
                                     if name.startswith(layer + "."))
    return out
