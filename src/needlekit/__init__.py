"""L1 optimal transport localization on finite metric measure spaces."""

from . import curvature, disint, isoperim, mmspace, monge1d, rays, w1solve
from .curvature import (
    CDReport,
    cd_density_check,
    mcp_density_check,
    mollify_density,
    sample_quadruples,
    sample_triples,
    sigma,
    standard_mollifier,
    tau,
)
from .disint import Disintegration, check_balance, check_consistency, disintegrate
from .isoperim import (
    MinkowskiEstimate,
    ModelProfileSpec,
    ProfilePoint,
    empirical_profile,
    levy_gromov_check,
    minkowski_content,
    model_profile,
)
from .mmspace import (
    Density1D,
    MMSpace,
    build_space,
    from_spec,
    generate_interval_model,
    generate_sphere_sample,
    load_spec,
)
from .monge1d import (
    MongeCoupling,
    MonotoneMap1D,
    Needles,
    assemble_monge_map,
    condition_target_via_plan,
    decompose,
    monotone_rearrangement,
)
from .rays import (
    RayDecomposition,
    TransportStructure,
    build_transport_structure,
    partition_rays,
)
from .w1solve import (
    GammaSet,
    W1Solution,
    check_cyclic_monotonicity,
    from_certificate,
    gamma_set,
    gamma_tol,
    solve_w1,
)

__version__ = "0.1.0"
