"""Desk-scale laboratory for finite-time extinction in 1-D stochastic
fast-diffusion porous media dynamics."""

from .harness import (
    EnsembleSummary,
    ExperimentConfig,
    InitialSpec,
    compare_with_bound,
    config_from_dict,
    config_from_yaml,
    ensemble_supermartingale_test,
    make_initial,
    run_ensemble,
    wilson_interval,
)
from .nonlinearity import (
    DiffusionLaw,
    ModelParams,
    psi0,
    psi0_inverse,
    resolvent,
    yosida,
)
from .noise import NoiseSpec, c_star, make_stream, sample_increments
from .operators import (
    GammaEstimate,
    GridSpec,
    SpectralBasis,
    build_basis,
    estimate_gamma,
    norm_hm1,
)
from .stepper import (
    SolverConfig,
    SolverCounts,
    Trajectory,
    convergence_study,
    run_path,
    weak_form_residual,
)
from .theory import (
    BoundInputs,
    deterministic_extinction_time,
    extinction_bound,
    integral_factor,
    positive_probability_condition,
    time_to_reach_bound,
)

__version__ = "0.1.0"
