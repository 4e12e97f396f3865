"""Gradient-flow toolkit for a fast-slow two-species reaction-drift-diffusion system.

Solves the scale-dependent tilted system and its coarse limit, evaluates
energies and the time-integrated dissipation with its four-term breakdown,
coarse-grains and reconstructs states and fluxes, and runs scale-sweep
experiments through the ``edpflow`` command-line tool.
"""

from .core import (
    FluxAssignment,
    SpatialGrid,
    State,
    SystemParams,
    Tilt,
    Trajectory,
    gce_residual,
    total_mass,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .functionals import (
    DissipationBreakdown,
    boltzmann,
    cosh_primal,
    cosh_primal_prime,
    cosh_star,
    cosh_star_prime,
    dual_dissipation,
    energy,
    energy_gradient,
    perspective_eval,
    r_eff_dual,
    slope,
    stationary_measure,
)
from .coarsegrain import (
    CoarseParams,
    RecoverySequence,
    build_recovery_sequence,
    coarse_grain,
    coarse_grain_trajectory,
    coarse_params,
    flux_equilibration_check,
    hat_energy,
    manifold_split,
    mollify_in_time,
    reconstruct_from_coarse,
    shift_positive,
    slow_manifold_defect,
)
from .solver import (
    IntegrationError,
    SolverConfig,
    lagrange_multipliers,
    solve_effective,
    solve_eps_system,
)
from .dissipation import (
    DualAscentError,
    DualMaximizerState,
    PrimalRate,
    dissipation_functional,
    edb_residual,
    effective_dissipation,
    flux_dissipation,
    hat_dissipation,
    hat_edb_residual,
    hat_flux_dissipation,
    primal_R_eps,
    primal_objective,
)
from .multispecies import (
    GeneratorReport,
    MarkovGenerator,
    MultispeciesBreakdown,
    build_detailed_balance_generator,
    kappa_coefficients,
    kappa_split,
    load_generator,
    multispecies_dissipation,
    random_detailed_balance_generator,
    solve_multispecies,
    validate_generator,
)
from .cli import (
    ConfigError,
    DecayFitError,
    ExperimentConfig,
    ExperimentResult,
    default_configs,
    equation_generator,
    fit_decay_rate,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
