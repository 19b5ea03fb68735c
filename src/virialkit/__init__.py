"""virialkit: density-activity inversion for finite species spaces.

Formal power series over species, connected/biconnected graph coefficients,
the enriched-tree fixed point for the inverse series, convergence
certificates, and worked applications.  The brute-force references that
check these live in ``virialkit.oracles``, which the package does not
import.
"""

from .errors import (
    CapabilityError,
    CertificateError,
    DomainError,
    StructureError,
    VirialKitError,
)
from .species import (
    MayerMatrices,
    MeasureVec,
    PairPotential,
    Species,
    SpeciesSpace,
    build_mayer,
    check_stability,
    load_species_json,
)
from .fps import (
    FormalSeries,
    RootedSeriesFamily,
    compose_measure,
    compose_univariate,
    exp_series,
    log_series,
    mul,
)
from .graphs import (
    build_A_family,
    build_D_family,
    build_phi_series,
    count_class,
    d_coeff,
    ursell,
)
from .treefp import compute_tn, eval_T, eval_T_abs, verify_FP, verify_FPprime
from .inversion import (
    GCState,
    check_PU,
    check_Sab,
    check_Sb,
    check_virMb,
    density_exact,
    dissymmetry_check,
    free_energy,
    pressure_of_nu,
    rho_of_z,
    roundtrip_check,
    run_request,
    xi_exact,
    zeta_of_nu,
    zeta_path_agreement,
)
from .homogeneous import (
    HomogeneousModel,
    banach_compare,
    beta_n_exact_1d,
    beta_n_mc,
    hom_inversion_selftest,
    k_constant,
    lp_chain,
    neighborhood_radii,
    r_lp,
    r_star,
    tonks_oracle,
    tree_fn_T,
    virial_table,
)
from .apps import (
    GridProfile,
    MixtureSpec,
    RodSystem,
    invert_mixture,
    invert_profile,
    rods_free_energy,
    unbounded_mixture_demo,
)

__version__ = "0.1.0"
