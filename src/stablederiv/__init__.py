"""stablederiv: numerical differentiation of noisy data with certified bounds.

Differentiation amplifies data noise without limit, so a raw difference
quotient on noisy samples is worthless at small steps. Given the noise
amplitude delta and an a priori smoothness bound (on sup|f''| or on the
Holder seminorm of f'), this package picks the step that balances noise
against truncation, returns derivative estimates together with a worst-case
sup-norm guarantee, proves the guarantee unimprovable via an executable
two-function counterexample, and ships a CLI for convergence experiments.

Quick start::

    import numpy as np
    from stablederiv import (
        FunctionOracle, NoisyOracle, SmoothnessSpec, UniformHashNoise, estimate,
    )

    base = FunctionOracle(eval=np.sin, derivative_eval=np.cos, name="sin")
    noisy = NoisyOracle(base=base, delta=1e-4, noise=UniformHashNoise(seed=7))
    report = estimate(noisy, SmoothnessSpec.c2(m2=1.0), np.linspace(-3, 3, 201))
    # report.estimates, report.h_used, report.guaranteed_bound, ...
"""

from .adversary import (
    AdversarialPair,
    ChallengeRecord,
    EstimatorHandle,
    build_zoo,
    challenge,
    lower_bound,
    make_pair,
    optimality_witness,
    pointwise_bound_scan,
    write_challenges_csv,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    EstimatorFailure,
    GridTooShortError,
    InsufficientDataError,
    ParameterError,
    StableDerivError,
    UnstableFamilyError,
)
from .estimator import (
    EstimateReport,
    StepRule,
    central_difference,
    error_bound_c2,
    error_bound_holder,
    estimate,
    estimate_on_grid,
    optimal_step_c2,
    optimal_step_holder,
)
from .function_model import (
    ConstantSignNoise,
    CosineAdversarialNoise,
    Domain,
    FunctionOracle,
    GridSignal,
    NoNoise,
    NoiseModel,
    NoisyOracle,
    SmoothnessSpec,
    SpecKind,
    UniformHashNoise,
    noise_from_name,
)
from .inequalities import InequalityResult, m1_bound

__version__ = "0.1.0"

__all__ = [
    "AdversarialPair",
    "CapabilityError",
    "ChallengeRecord",
    "ConfigurationError",
    "ConstantSignNoise",
    "CosineAdversarialNoise",
    "DegenerateInputError",
    "Domain",
    "DomainError",
    "EstimateReport",
    "EstimatorFailure",
    "EstimatorHandle",
    "FunctionOracle",
    "GridSignal",
    "GridTooShortError",
    "InequalityResult",
    "InsufficientDataError",
    "NoNoise",
    "NoiseModel",
    "NoisyOracle",
    "ParameterError",
    "SmoothnessSpec",
    "SpecKind",
    "StableDerivError",
    "StepRule",
    "UniformHashNoise",
    "UnstableFamilyError",
    "build_zoo",
    "central_difference",
    "challenge",
    "error_bound_c2",
    "error_bound_holder",
    "estimate",
    "estimate_on_grid",
    "lower_bound",
    "m1_bound",
    "make_pair",
    "noise_from_name",
    "optimal_step_c2",
    "optimal_step_holder",
    "optimality_witness",
    "pointwise_bound_scan",
    "write_challenges_csv",
]
