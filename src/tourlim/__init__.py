"""tourlim: score sequences, step tournament kernels, pattern densities,
degree distributions, W-random sampling and non-uniqueness certificates."""

from .conditions import (
    ValidityReport,
    check_condition_I,
    check_condition_II,
    check_eplett,
    check_hausdorff_moments,
    check_landau,
    irreducible_decomposition,
    is_simple_avery,
    moments_of_score_function,
)
from .core import (
    TOL,
    DegreeDistribution,
    DigraphPattern,
    GeneralizedTournament,
    MomentSequence,
    ScoreFunction,
    ScoreSequence,
    StepKernel,
    ValidationError,
    converse,
    decreasing_rearrangement,
    degree_distribution,
    increasing_rearrangement,
    rearrangement_permutation,
    score_function_of_kernel,
    scores_of_tournament,
    step_kernel_from_tournament,
    wasserstein1,
)
from .density import (
    DensityFingerprint,
    c3_from_degree,
    density_finite,
    density_kernel,
    fingerprint,
    star_density,
)
from .perturb import (
    CyclicBox,
    NonUniquenessCertificate,
    c4_polynomial,
    find_cyclic_box,
    nonuniqueness_certificate,
    perturb_family,
)
from .realize import (
    discretize_score_function,
    kernel_from_score_function,
    realize_scores,
    realize_self_converse,
    symmetrize_self_converse,
)
from .sample import (
    ConvergenceReport,
    ConvergenceRow,
    SampleConfig,
    convergence_report,
    empirical_degree_distribution,
    is_selfconverse_under,
    random_step_kernel,
    sample_self_converse,
    sample_tournament,
    witness_permutation,
)

__version__ = "0.1.0"
