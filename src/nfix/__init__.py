"""Anchored n-normed spaces: volume norms, operator analysis, and certified
fixed-point iteration."""

from .nnorm import (
    DEFAULT_RANK_TOL,
    AnchoredSpace,
    Ball,
    ProductPoint,
    SequencePrefix,
    anchored_seminorm,
    as_vector,
    b_cauchy_tail,
    b_limit_estimate,
    ball_membership,
    gram_nnorm,
    is_linearly_dependent,
    product_nnorm,
)
from .operators import (
    ContinuityProbe,
    ContractionEstimate,
    OperatorNormEstimate,
    OperatorSpec,
    affine_operator,
    apply,
    apply_batch,
    builtin_operator,
    compose,
    continuity_probe,
    contraction_constant,
    is_linear,
    kernel_preserved,
    kernel_violation_witness,
    lipschitz_constant,
    operator_norm,
)
from .solvers import (
    ASeq,
    ConstantMismatchError,
    ContainmentError,
    NonFiniteIterateError,
    PreconditionError,
    SolverConfig,
    SolverInputError,
    SolverReport,
    TraceRow,
    ball_solve,
    edelstein_solve,
    explicit_sequence,
    geometric_sequence,
    kannan_solve,
    picard_solve,
    solve,
    summable_solve,
)
from .harness import (
    PropertyReport,
    canonical_space,
    check_axiom_suite,
    check_banach_reduction,
    check_bounded_iff_continuous,
    check_bounded_sets,
    check_contractive_ratio,
    check_product_ball_lemma,
    random_kernel_preserving_operator,
    reduction_suite,
)

__version__ = "0.1.0"
