"""Localized reduced basis additive Schwarz solvers.

Library for solving sequences of symmetric positive definite systems
that differ by local coefficient modifications: a Q1 finite element
testbed with a movable channel conductivity field, overlapping domain
decomposition with a GenEO coarse space, reduced basis solvers that
recycle local bases across the sequence, and preconditioned CG
baselines.
"""

from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .decomposition import (
    CoarseSpace,
    Decomposition,
    LocalOperators,
    PartitionOfUnity,
    apply_as_preconditioner,
    build_decomposition,
    build_geneo_coarse,
    build_partition_of_unity,
    detect_changed_subdomains,
)
from .fem import (
    ChannelGeometry,
    CoefficientField,
    DEFAULT_SCHEDULE,
    Grid,
    LinearSystem,
    ModificationSchedule,
    SequenceProblem,
    assemble,
    assemble_local_neumann,
    build_coefficient,
    problem_sequence,
    schedule_fields,
)
from .experiment import Comparison, ComparisonRow, RunArtifacts, compare, run
from .linalg import (
    ConvergenceFailure,
    Factorization,
    IndefiniteMatrixError,
    SparseSymMatrix,
    factorize,
    sym_gen_eig,
)
from .solver import (
    LocalBasis,
    ReducedSystem,
    SolveReport,
    SolverOptions,
    StepReport,
    lrbas_solve_one,
    pcg,
    pou_snapshot_guess,
    run_sequence,
    select_enrichment,
    transition_bases,
)

__all__ = [
    "CoarseSpace",
    "ChannelGeometry",
    "CoefficientField",
    "Comparison",
    "ComparisonRow",
    "ConfigError",
    "ConvergenceFailure",
    "DEFAULT_SCHEDULE",
    "Decomposition",
    "ExperimentConfig",
    "Factorization",
    "Grid",
    "IndefiniteMatrixError",
    "LinearSystem",
    "LocalBasis",
    "LocalOperators",
    "ModificationSchedule",
    "PartitionOfUnity",
    "ReducedSystem",
    "RunArtifacts",
    "SequenceProblem",
    "SolveReport",
    "SolverOptions",
    "SparseSymMatrix",
    "StepReport",
    "apply_as_preconditioner",
    "assemble",
    "assemble_local_neumann",
    "build_coefficient",
    "build_decomposition",
    "build_geneo_coarse",
    "build_partition_of_unity",
    "compare",
    "config_from_dict",
    "detect_changed_subdomains",
    "factorize",
    "load_config",
    "lrbas_solve_one",
    "pcg",
    "pou_snapshot_guess",
    "problem_sequence",
    "run",
    "run_sequence",
    "schedule_fields",
    "select_enrichment",
    "sym_gen_eig",
    "transition_bases",
]

__version__ = "0.1.0"
