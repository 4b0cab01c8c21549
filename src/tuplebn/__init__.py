"""Discrete networks of bounded in-degree over an ordered variable set:
exact and empirical independence queries, structure recovery from small
tuple marginals, and VC-dimension bounds with sample-size solvers."""

__version__ = "0.1.0"

# Kernel implementation name; benchmark run metadata reports it.
BACKEND = "python"

from .model import (
    CapacityError,
    DiscreteDag,
    InvalidDagError,
    JointTable,
    Violation,
    dag_from_dict,
    dag_to_dict,
    factorized_joint,
    load_dag,
    random_dag,
    save_dag,
)
from .oracle import (
    EXACT_TOL,
    AccessLog,
    ExactMarginalProvider,
    TupleSizeError,
    dependence_statistic,
    is_markov_relative,
    marginal,
)
from .estimation import (
    EmpiricalMarginalProvider,
    FrequencyTable,
    InvalidSamplesError,
    SampleMatrix,
    frequencies_to_dict,
    load_samples,
    sample,
    save_frequencies,
    save_samples,
    tuple_frequencies,
)
from .recovery import (
    AttachResult,
    CiDecider,
    ModelViolationError,
    NodeTrace,
    ProviderCiDecider,
    RecoveryTrace,
    Skeleton,
    attach_cpts,
    empirical_ci_decider,
    exact_ci_decider,
    recover_structure,
)
from .vcbounds import (
    Certificate,
    CylinderCount,
    RiskBound,
    SampleSizes,
    ShatterWitness,
    VerifyResult,
    cylinder_count,
    required_sample_size,
    risk_bound,
    save_witness,
    shatter_witness,
    vc_lower_bound,
    vc_upper_bound,
    verify_shattered,
    witness_to_dict,
)
from .experiment import (
    ExperimentConfig,
    TrialReport,
    load_config,
    run_experiment,
    run_trial_cell,
    save_trial_reports,
    summarize,
)

__all__ = [
    "BACKEND",
    "__version__",
    # model
    "CapacityError",
    "DiscreteDag",
    "InvalidDagError",
    "JointTable",
    "Violation",
    "dag_from_dict",
    "dag_to_dict",
    "factorized_joint",
    "load_dag",
    "random_dag",
    "save_dag",
    # oracle
    "EXACT_TOL",
    "AccessLog",
    "ExactMarginalProvider",
    "TupleSizeError",
    "dependence_statistic",
    "is_markov_relative",
    "marginal",
    # estimation
    "EmpiricalMarginalProvider",
    "FrequencyTable",
    "InvalidSamplesError",
    "SampleMatrix",
    "frequencies_to_dict",
    "load_samples",
    "sample",
    "save_frequencies",
    "save_samples",
    "tuple_frequencies",
    # recovery
    "AttachResult",
    "CiDecider",
    "ModelViolationError",
    "NodeTrace",
    "ProviderCiDecider",
    "RecoveryTrace",
    "Skeleton",
    "attach_cpts",
    "empirical_ci_decider",
    "exact_ci_decider",
    "recover_structure",
    # vcbounds
    "Certificate",
    "CylinderCount",
    "RiskBound",
    "SampleSizes",
    "ShatterWitness",
    "VerifyResult",
    "cylinder_count",
    "required_sample_size",
    "risk_bound",
    "save_witness",
    "shatter_witness",
    "vc_lower_bound",
    "vc_upper_bound",
    "verify_shattered",
    "witness_to_dict",
    # experiment
    "ExperimentConfig",
    "TrialReport",
    "load_config",
    "run_experiment",
    "run_trial_cell",
    "save_trial_reports",
    "summarize",
]
