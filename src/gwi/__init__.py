"""Simulation and numerical verification toolkit for critical multi-type
Galton-Watson processes with immigration."""

__version__ = "0.1.0"

from .distributions import (
    Bernoulli,
    Deterministic,
    DistributionSpec,
    Geometric,
    JointTable,
    Poisson,
    spec_from_dict,
)
from .errors import (
    ConsistencyError,
    DegenerateLawError,
    GwiError,
    OverflowGuardError,
    ValidationError,
)
from .model import (
    CaseId,
    GwiModel,
    accessible,
    build_model,
    classify_criticality,
    detect_case,
    is_strongly_critical,
    load_model,
    reducible_normal_form,
    save_model,
    spectral_radius,
)
from .moments import (
    GrowthExponents,
    MeanPolynomial,
    conditional_covariance,
    growth_exponents,
    leading_asymptotic,
    martingale_second_moment,
    mean_polynomial,
    mean_vector,
    moment_growth_targets,
    moment_stream,
    unipotent_power,
    variance_matrix,
)
from .simulate import (
    Trajectory,
    decomposition_components,
    martingale_increments,
    simulate_ensemble,
    simulate_replicas,
    simulate_trajectory,
    step_ensemble,
    stream_ensemble,
    weighted_sum_identity_1,
    weighted_sum_identity_2,
    weighted_sum_identity_3,
)
from .sde import (
    GammaLaw,
    KernelResiduals,
    LimitSystem,
    SdePath,
    exact_first_coordinate_law,
    kernel_representation_check,
    limit_mean_vector,
    limit_system_marginals,
    make_grid,
    simulate_limit_system,
)
from .harness import (
    ConvergenceReport,
    GrowthFitResult,
    ScaledStepProcess,
    growth_fit,
    ks_two_sample,
    run_convergence_experiment,
    step_integral_functional,
    wasserstein1,
)
