"""The names `needlekit` exports, pinned: adding or removing one is a
deliberate edit to this list."""

import types

import needlekit as nk

EXPORTS = """
CDReport Density1D Disintegration GammaSet MMSpace MinkowskiEstimate
ModelProfileSpec MongeCoupling MonotoneMap1D Needles ProfilePoint
RayDecomposition TransportStructure W1Solution assemble_monge_map build_space
build_transport_structure cd_density_check check_balance check_consistency
check_cyclic_monotonicity condition_target_via_plan decompose disintegrate
empirical_profile from_certificate from_spec gamma_set gamma_tol
generate_interval_model generate_sphere_sample levy_gromov_check load_spec
mcp_density_check minkowski_content model_profile mollify_density
monotone_rearrangement partition_rays sample_quadruples sample_triples sigma
solve_w1 standard_mollifier tau
"""


def test_exported_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # else has been imported (`cli`, `selftest`)
    exported = sorted(name for name, value in vars(nk).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == sorted(EXPORTS.split())
